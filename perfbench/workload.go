package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/traffic"
	instgen "repro/internal/workload"
)

// workload is one traffic mix. Every input is generated from the run's
// seed, so every commit measured with the same seed gets the same bytes.
type workload struct {
	name string
	// rate is the open-loop offered rate in arrivals per second, a third
	// of the workload's own sat_ops_s or less: steal bursts on a shared VM
	// make latency at higher utilisation swing run to run.
	rate float64
	// sat is the sat_ops_s the rate was calibrated against.
	sat float64
	// openConns caps the open loop's connections; 0 means one per
	// allowed CPU, as the closed loop always uses.
	openConns int
	// build generates the set-up, open-loop and closed-loop requests.
	build func(g *gen, nOpen, nClosed int) (*inputs, error)
}

// The offered rates were calibrated on a 2-vCPU VM (Intel Xeon, suud and
// the generator each pinned to one vCPU) from the median sat_ops_s of
// several seeds at the parent commit. hot-zipf's is a third of 3440/s.
// cold-mix's is about a sixth of its 150-225/s, on one connection: a
// quarter of its plans are chain or specialist plans five times the cost
// of the rest, and at a third of saturation over two connections more
// than half of its arrivals shared the server with one of them, so its
// p50 fell on the edge between those and plans served alone and moved by
// a quarter between identical runs. Its 28/s still gives the p99 over
// 1000 arrivals.
var workloads = []*workload{
	{name: "hot-zipf", rate: 1100, sat: 3440, build: buildHotZipf},
	{name: "cold-mix", rate: 28, sat: 200, openConns: 1, build: buildColdMix},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// request is one pre-marshalled HTTP request and what its answer must be.
type request struct {
	path string
	body []byte
	// key identifies the answer: requests with equal keys must receive
	// byte-identical payloads (serving flags aside).
	key int
	// repeat marks keys that recur, whose first verified payload is kept
	// for byte comparison with later answers.
	repeat bool
	// sampled requests are recomputed in process after the run and must
	// match the served payload.
	sampled bool
	exp     expect
	plan    *service.PlanRequest
}

// expect is what a correct answer to a request carries.
type expect struct {
	fingerprint string
	class       string
	m, n        int
}

// inputs is a workload's generated traffic for one run.
type inputs struct {
	warm   []*request // set-up warm-up, run on every set-up
	open   []*request // one per open-loop arrival, in arrival order
	closed []*request // closed-loop requests, issued in order
	// pool holds the workload's distinct requests by kind for the
	// in-process layer pass.
	pool layerPool
}

// layerPool holds instances the in-process layer pass times, by shape.
type layerPool struct {
	uniform64 []*request // uniform n=64/m=16 plans
	spec128   []*request // specialist n=128/m=32 plans
	chains    []*request // chain plans
	estSEM    []*service.EstimateRequest
	estChains []*service.EstimateRequest
}

// gen derives every seeded stream of a run from the run's seed and the
// workload's name, so workloads never share instance seeds.
type gen struct {
	base uint64
}

func newGen(seed int64, name string) *gen {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return &gen{base: splitmix(uint64(seed) ^ h)}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream returns an independent seed for sub-stream id.
func (g *gen) stream(id uint64) int64 {
	return int64(splitmix(g.base^splitmix(id)) >> 2)
}

// rng returns a seeded source for sub-stream id.
func (g *gen) rng(id uint64) *rand.Rand { return rand.New(rand.NewSource(g.stream(id))) }

// Sub-stream ids.
const (
	streamSchedule = iota + 1
	streamCatalog
	streamPopularity
	streamInstances
	streamMix
	streamSample
)

// schedule draws Poisson arrival offsets at rate per second over d.
func schedule(g *gen, rate float64, d time.Duration) []time.Duration {
	r := g.rng(streamSchedule)
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if off := time.Duration(t * float64(time.Second)); off < d {
			out = append(out, off)
		} else {
			return out
		}
	}
}

// Shapes the workloads draw from.
var (
	shapeUniform64 = instgen.Spec{Family: "uniform", M: 16, N: 64}
	shapeSpec128   = instgen.Spec{Family: "specialist", M: 32, N: 128}
	shapeChains64  = instgen.Spec{Family: "chains", M: 16, N: 64}
	shapeChains32  = instgen.Spec{Family: "chains", M: 8, N: 32}
)

func instanceOf(shape instgen.Spec, seed int64) (*model.Instance, expect, error) {
	shape.Seed = seed
	ins, err := instgen.Generate(shape)
	if err != nil {
		return nil, expect{}, fmt.Errorf("generating %s m=%d n=%d seed %d: %w", shape.Family, shape.M, shape.N, seed, err)
	}
	return ins, expect{
		fingerprint: sched.FingerprintInstance(ins).String(),
		class:       ins.Class().String(),
		m:           ins.M,
		n:           ins.N,
	}, nil
}

func planRequest(key int, shape instgen.Spec, seed int64) (*request, error) {
	ins, exp, err := instanceOf(shape, seed)
	if err != nil {
		return nil, err
	}
	pr := &service.PlanRequest{Instance: ins}
	body, err := json.Marshal(pr)
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/plan", body: body, key: key, exp: exp, plan: pr}, nil
}

// hot-zipf: singles over a 256-spec catalog with zipf(1.1) popularity.
// After set-up every request is a plan-cache hit.
func buildHotZipf(g *gen, nOpen, nClosed int) (*inputs, error) {
	const catalogSize = 256
	in := &inputs{}
	base := g.stream(streamCatalog)
	catalog := make([]*request, catalogSize)
	for i := range catalog {
		r, err := planRequest(i, shapeUniform64, base+int64(i))
		if err != nil {
			return nil, err
		}
		r.repeat = true
		catalog[i] = r
	}
	for _, i := range g.rng(streamSample).Perm(catalogSize)[:8] {
		catalog[i].sampled = true
	}
	in.warm = catalog
	pop, err := traffic.NewZipfian(1.1, catalogSize, g.stream(streamPopularity))
	if err != nil {
		return nil, err
	}
	for i := 0; i < nOpen; i++ {
		in.open = append(in.open, catalog[pop.Next()])
	}
	for i := 0; i < nClosed; i++ {
		in.closed = append(in.closed, catalog[pop.Next()])
	}
	in.pool.uniform64 = catalog
	return in, nil
}

// cold-mix: every request carries an instance the server has never seen,
// mixed 6:1:1 uniform n=64/m=16, specialist n=128/m=32 and chains
// n=64/m=16. Each block of eight requests holds exactly that mix, in a
// seeded order, so the cost of a run's traffic varies little with the
// seed.
func buildColdMix(g *gen, nOpen, nClosed int) (*inputs, error) {
	mix := g.rng(streamMix)
	block := []instgen.Spec{shapeUniform64, shapeUniform64, shapeUniform64,
		shapeUniform64, shapeUniform64, shapeUniform64, shapeSpec128, shapeChains64}
	seeds := g.stream(streamInstances)
	key := 0
	in := &inputs{}
	next := func() (*request, error) {
		if key%len(block) == 0 {
			mix.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		shape := block[key%len(block)]
		r, err := planRequest(key, shape, seeds+int64(key))
		if err != nil {
			return nil, err
		}
		key++
		switch shape {
		case shapeUniform64:
			in.pool.uniform64 = append(in.pool.uniform64, r)
		case shapeSpec128:
			in.pool.spec128 = append(in.pool.spec128, r)
		default:
			in.pool.chains = append(in.pool.chains, r)
		}
		return r, nil
	}
	fill := func(dst *[]*request, n int) error {
		for i := 0; i < n; i++ {
			r, err := next()
			if err != nil {
				return err
			}
			*dst = append(*dst, r)
		}
		return nil
	}
	if err := fill(&in.warm, 16); err != nil {
		return nil, err
	}
	if err := fill(&in.open, nOpen); err != nil {
		return nil, err
	}
	if err := fill(&in.closed, nClosed); err != nil {
		return nil, err
	}
	markSample(g, in.open, 8)
	// Keep only what the layer pass times; the rest would pin every
	// generated instance for the whole run.
	in.pool.uniform64 = in.pool.uniform64[:min(len(in.pool.uniform64), 16)]
	in.pool.spec128 = in.pool.spec128[:min(len(in.pool.spec128), 4)]
	in.pool.chains = in.pool.chains[:min(len(in.pool.chains), 4)]
	for _, r := range append(append(in.warm, in.open...), in.closed...) {
		if !r.sampled && !inPool(&in.pool, r) {
			r.plan = nil
		}
	}
	return in, nil
}

func inPool(p *layerPool, r *request) bool {
	for _, set := range [][]*request{p.uniform64, p.spec128, p.chains} {
		for _, x := range set {
			if x == r {
				return true
			}
		}
	}
	return false
}

// markSample flags n seeded picks among the first third of the open-loop
// arrivals, which traced runs (half-length phases) also send, for the
// in-process reference check.
func markSample(g *gen, open []*request, n int) {
	reqs := open[:len(open)/3]
	if len(reqs) == 0 {
		return
	}
	for _, i := range g.rng(streamSample).Perm(len(reqs))[:min(n, len(reqs))] {
		reqs[i].sampled = true
	}
}

// estimatePool builds the Monte Carlo inputs of the in-process layer
// pass: 8 uniform n=64/m=16 instances (SEM) and 8 chains n=32/m=8 (SUU-C),
// each estimated over the planner's default of 200 trials.
func estimatePool(seed int64) (sem, chains []*service.EstimateRequest, err error) {
	const perShape = 8
	g := newGen(seed, "estimates")
	base := g.stream(streamInstances)
	for i := 0; i < 2*perShape; i++ {
		shape := shapeUniform64
		if i >= perShape {
			shape = shapeChains32
		}
		ins, _, err := instanceOf(shape, base+int64(i))
		if err != nil {
			return nil, nil, err
		}
		req := &service.EstimateRequest{Instance: ins, Policy: "auto", Trials: 200, Seed: base - int64(i)}
		if i < perShape {
			sem = append(sem, req)
		} else {
			chains = append(chains, req)
		}
	}
	return sem, chains, nil
}

// pctl returns the q-quantile of sorted xs by nearest rank.
func pctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
