package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"punt"
	"punt/internal/benchgen"
	"punt/internal/stg"
	"punt/server"
)

// randomBudget is the signal budget of the service workload's RandomSTG
// controllers.
const randomBudget = 12

// Service mix: per round, hotPerRound repeats from the prewarmed hot set and
// coldPerRound never-seen specifications.
const (
	hotPerRound  = 7
	coldPerRound = 3
	hotRandom    = 40
)

// service is one in-process puntd handler over a fresh two-tier cache.
type service struct {
	srv     *server.Server
	handler http.Handler
}

func newService(dir string) (*service, error) {
	disk, err := punt.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Cache: punt.NewTiered(punt.NewLRU(16), disk)})
	return &service{srv: srv, handler: srv.Handler()}, nil
}

// serviceOptions are the facade options a service request maps to.
func serviceOptions() []punt.Option { return []punt.Option{punt.WithResolveCSC(0)} }

func requestBody(text string) []byte {
	body, err := json.Marshal(server.Request{Spec: text, ResolveCSC: true})
	if err != nil {
		panic(err) // a struct of strings and bools always encodes
	}
	return body
}

// serve sends one POST /v1/synthesize through the handler.
func (s *service) serve(body []byte) outcome {
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	return outcome{lat: time.Since(start), code: rec.Code, val: rec}
}

// countStats records the server and cache-tier counter deltas since before.
func (s *service) countStats(tr *tracer, before server.Stats) {
	after := s.srv.Stats()
	tr.count("server.warm_hits", float64(after.WarmHits-before.WarmHits))
	tr.count("server.syntheses", float64(after.Syntheses-before.Syntheses))
	tr.count("server.joined", float64(after.Joined-before.Joined))
	tr.count("server.rejected", float64(after.Rejected-before.Rejected))
	tr.count("server.errors", float64(after.Errors-before.Errors))
	if l1, l2, ok := tierHitFracs(before, after); ok {
		tr.count("cache.l1_hit_frac", l1)
		tr.count("cache.l2_hit_frac", l2)
	}
}

// tierHitFracs is the share of the cache lookups between two server stats
// that each tier answered.
func tierHitFracs(before, after server.Stats) (l1, l2 float64, ok bool) {
	lookups := float64(after.Cache.Hits + after.Cache.Misses - before.Cache.Hits - before.Cache.Misses)
	if lookups == 0 {
		return 0, 0, false
	}
	l1 = float64(after.Cache.Tiers[0].Hits-before.Cache.Tiers[0].Hits) / lookups
	l2 = float64(after.Cache.Tiers[1].Hits-before.Cache.Tiers[1].Hits) / lookups
	return l1, l2, true
}

type serviceEnv struct {
	svc    *service
	dir    string
	hot    []string
	ref    map[string]string // hot text → reference equations
	inputs []string          // per op
	cold   []bool            // per op
	bodies map[string][]byte // text → request body
	before server.Stats

	// Response bodies are spooled to a file, each distinct body once, so
	// the oracle can read them after the timed window without the process
	// holding them.
	mu        sync.Mutex
	spool     *os.File
	spoolEnd  int64
	responses map[[32]byte]spooled
}

// spooled locates one response body in the spool file.
type spooled struct{ off, n int64 }

// serviceSpecs draws distinct RandomSTG controllers from rng, skipping any
// whose text is already in seen.
func serviceSpecs(rng *rand.Rand, n int, seen map[string]bool) []string {
	var out []string
	for len(out) < n {
		text := stg.Format(benchgen.RandomSTG(1_000_000+rng.Int63n(1_000_000_000), randomBudget))
		if !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	return out
}

func setupService(seed int64, rounds int, dir string) (env, error) {
	tmp, err := os.MkdirTemp(dir, "service-")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{dir: tmp, ref: map[string]string{}, bodies: map[string][]byte{}, responses: map[[32]byte]spooled{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if e.spool, err = os.Create(filepath.Join(tmp, "responses")); err != nil {
		return nil, err
	}
	if e.svc, err = newService(filepath.Join(tmp, "cache")); err != nil {
		return nil, err
	}
	// The hot set is the same for every seed, so the seed moves only the
	// op order and the never-seen specifications.
	seen := map[string]bool{}
	for _, item := range punt.Table1() {
		text := item.Spec.Text()
		seen[text] = true
		e.hot = append(e.hot, text)
	}
	e.hot = append(e.hot, serviceSpecs(rand.New(rand.NewSource(0)), hotRandom, seen)...)
	rng := rand.New(rand.NewSource(seed))
	// Prewarm: every hot specification once through the server, and its
	// reference equations from a direct synthesis.
	for _, text := range e.hot {
		e.bodies[text] = requestBody(text)
		if o := e.svc.serve(e.bodies[text]); o.code != http.StatusOK {
			return nil, fmt.Errorf("prewarm: status %d", o.code)
		}
		ref, err := referenceEqn(text)
		if err != nil {
			return nil, fmt.Errorf("prewarm reference: %w", err)
		}
		e.ref[text] = ref
	}
	// The op sequence: a warm-up round, then the timed rounds.
	total := rounds + 1
	cold := serviceSpecs(rng, coldPerRound*total, seen)
	var inputs []string
	var isCold []bool
	for r := 0; r < total; r++ {
		round := make([]string, 0, hotPerRound+coldPerRound)
		for k := 0; k < hotPerRound; k++ {
			round = append(round, e.hot[rng.Intn(len(e.hot))])
		}
		round = append(round, cold[r*coldPerRound:(r+1)*coldPerRound]...)
		for _, k := range rng.Perm(len(round)) {
			inputs = append(inputs, round[k])
			isCold = append(isCold, k >= hotPerRound)
		}
	}
	for i, text := range inputs {
		if isCold[i] {
			e.bodies[text] = requestBody(text)
		}
	}
	warm := hotPerRound + coldPerRound
	for i := 0; i < warm; i++ {
		o := e.svc.serve(e.bodies[inputs[i]])
		if pass, _, err := e.checkText(inputs[i], o.code, o.val.(*httptest.ResponseRecorder).Body.Bytes()); err != nil || !pass {
			return nil, fmt.Errorf("warm-up request %d failed: status %d %v", i, o.code, err)
		}
	}
	e.inputs, e.cold = inputs[warm:], isCold[warm:]
	e.before = e.svc.srv.Stats()
	ok = true
	return e, nil
}

// referenceEqn synthesises a specification directly with the options a
// service request maps to.
func referenceEqn(text string) (string, error) {
	spec, err := punt.Parse(text)
	if err != nil {
		return "", err
	}
	res, err := punt.New(serviceOptions()...).Synthesize(context.Background(), spec)
	if err != nil {
		return "", err
	}
	return res.Eqn(), nil
}

func (e *serviceEnv) ops() int { return len(e.inputs) }

func (e *serviceEnv) class(i int) string {
	if e.cold[i] {
		return "cold"
	}
	return "hot"
}

func (e *serviceEnv) digest() string {
	h := sha256.New()
	for i, text := range e.inputs {
		fmt.Fprintf(h, "%s %x\n", e.class(i), sha256.Sum256([]byte(text)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (e *serviceEnv) close() {
	if e.spool != nil {
		e.spool.Close()
	}
	os.RemoveAll(e.dir)
}

// do serves op i and spools its response body for the oracle.
func (e *serviceEnv) do(i int, tr *tracer) outcome {
	name := "server.warm"
	if e.cold[i] {
		name = "server.cold"
	}
	var o outcome
	tr.timed(name, -1, i, func() { o = e.svc.serve(e.bodies[e.inputs[i]]) })
	body := o.val.(*httptest.ResponseRecorder).Body.Bytes()
	sum := sha256.Sum256(body)
	o.val = sum
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.responses[sum]; !ok {
		if _, err := e.spool.WriteAt(body, e.spoolEnd); err != nil {
			o.err = fmt.Errorf("spooling the response: %w", err)
			return o
		}
		e.responses[sum] = spooled{e.spoolEnd, int64(len(body))}
		e.spoolEnd += int64(len(body))
	}
	return o
}

func (e *serviceEnv) check(i int, o outcome) (bool, int, error) {
	if o.err != nil {
		return false, 0, nil
	}
	e.mu.Lock()
	at := e.responses[o.val.([32]byte)]
	e.mu.Unlock()
	body := make([]byte, at.n)
	if _, err := e.spool.ReadAt(body, at.off); err != nil {
		return false, 0, fmt.Errorf("reading the response spool: %w", err)
	}
	return e.checkText(e.inputs[i], o.code, body)
}

// checkText accepts a 200 whose decoded equations equal the library's direct
// synthesis of the same specification and options (computed here, after the
// timed window, for never-seen specifications).
func (e *serviceEnv) checkText(text string, code int, body []byte) (bool, int, error) {
	if code != http.StatusOK {
		return false, 0, nil
	}
	res, err := punt.DecodeResult(body)
	if err != nil {
		return false, 0, nil
	}
	ref, ok := e.ref[text]
	if !ok {
		if ref, err = referenceEqn(text); err != nil {
			return false, 0, fmt.Errorf("reference synthesis: %w", err)
		}
	}
	return res.Eqn() == ref, res.Literals(), nil
}

// finish requires that the timed window neither joined nor rejected a
// request: every cold specification is distinct and one client never
// exceeds the admission bound.  It records the window's tier hit shares:
// the LRU hashes keys with a per-process seed into single-entry shards, so
// which repeats hit L1 rather than disk differs from process to process.
func (e *serviceEnv) finish(meta map[string]any) error {
	st := e.svc.srv.Stats()
	if l1, l2, ok := tierHitFracs(e.before, st); ok {
		meta["cache_l1_hit_frac"], meta["cache_l2_hit_frac"] = l1, l2
	}
	if st.Joined != e.before.Joined || st.Rejected != e.before.Rejected {
		return fmt.Errorf("server joined %d and rejected %d requests", st.Joined-e.before.Joined, st.Rejected-e.before.Rejected)
	}
	return nil
}

func (e *serviceEnv) layers(tr *tracer, ops int) error {
	e.svc.countStats(tr, e.before)
	kit, err := newLayerKit(filepath.Join(e.dir, "kit"))
	if err != nil {
		return err
	}
	hot := map[string]*punt.Result{}
	for _, text := range e.hot {
		spec, err := punt.Parse(text)
		if err != nil {
			return err
		}
		synth := punt.New(serviceOptions()...)
		res, err := synth.Synthesize(context.Background(), spec)
		if err != nil {
			return err
		}
		kit.lru.Put(synth.CacheKey(spec), res)
		kit.disk.Put(synth.CacheKey(spec), res)
		hot[text] = res
	}
	for i, text := range e.inputs[:ops] {
		in := layerInput{op: i, text: text, opts: serviceOptions(), res: hot[text]}
		if e.cold[i] {
			in.verify = true
		}
		if err := layerPass(context.Background(), tr, kit, in); err != nil {
			return err
		}
	}
	return nil
}
