package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; README.md says which end-to-end metric
// each per-layer metric should move, and on which workload.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"sat_ops_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"driver.lag_p99_ms", "ms", "lower"},
	{"driver.cpu_frac", "frac", "lower"},
	{"host.steal_frac", "frac", "lower"},
	{"recon.client_ms", "ms", "lower"},
	{"recon.server_ms", "ms", "lower"},
	{"wire.ms_per_op", "ms", "lower"},
	{"wire.req_kb_per_op", "KiB", "lower"},
	{"wire.resp_kb_per_op", "KiB", "lower"},
	{"service.decode_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.flight_ms", "ms", "lower"},
	{"service.solve_ms", "ms", "lower"},
	{"service.round_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"service.unexplained_ms", "ms", "lower"},
	{"service.hit_frac", "frac", "higher"},
	{"service.coalesced_frac", "frac", "higher"},
	{"service.rejected_frac", "frac", "lower"},
	{"service.serve_hit_us", "us", "lower"},
	{"service.plan_hit_us", "us", "lower"},
	{"store.mem_ms", "ms", "lower"},
	{"store.disk_ms", "ms", "lower"},
	{"store.miss_ms", "ms", "lower"},
	{"store.disk_put_us", "us", "lower"},
	{"store.disk_get_us", "us", "lower"},
	{"store.mem_get_us", "us", "lower"},
	{"model.decode_us", "us", "lower"},
	{"sched.fingerprint_us", "us", "lower"},
	{"sched.serialize_us", "us", "lower"},
	{"lp.lp1_solve_ms.n64m16", "ms", "lower"},
	{"lp.lp1_solve_ms.n128m32", "ms", "lower"},
	{"lp.lp2_solve_ms", "ms", "lower"},
	{"lp.cold_solves", "count", "lower"},
	{"lp.warm_solves", "count", "higher"},
	{"lp.warm_fallbacks", "count", "lower"},
	{"lp.dense_fallbacks", "count", "lower"},
	{"rounding.round_ms", "ms", "lower"},
	{"rounding.repairs", "count", "lower"},
	{"rounding.length_over_tstar", "ratio", "lower"},
	{"sim.trial_us", "us", "lower"},
	{"core.sem_rounds_per_trial", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// stageMetrics maps X-Suu-Trace stages onto per-layer metric names.
// Stages without a metric (peer fetches, brownout fallbacks) cannot
// occur on a single replica that rejects under overload; they still
// count in the stage sum.
var stageMetrics = map[trace.Stage]string{
	trace.StageDecode:    "service.decode_ms",
	trace.StageQueue:     "service.queue_ms",
	trace.StageFlight:    "service.flight_ms",
	trace.StageSolve:     "service.solve_ms",
	trace.StageRound:     "service.round_ms",
	trace.StageEncode:    "service.encode_ms",
	trace.StageStoreMem:  "store.mem_ms",
	trace.StageStoreDisk: "store.disk_ms",
	trace.StageStoreMiss: "store.miss_ms",
}

// tracedRun measures the per-layer metrics: the same phases, at half
// length, first against an untraced server (the baseline for the tracing
// overhead) and then against one that traces every request; then the
// in-process pass over the run's inputs.
func tracedRun(opt *options, in *inputs, full *timing, ck *checker, res *result) error {
	tm := *full
	tm.openLen, tm.closedLen = tm.openLen/2, tm.closedLen/2
	n := sort.Search(len(tm.offsets), func(i int) bool { return tm.offsets[i] >= tm.openLen })
	tm.offsets = tm.offsets[:n]
	base, _, err := serverPass(opt, in, &tm, ck, false)
	if err != nil {
		return err
	}
	m, delta, err := serverPass(opt, in, &tm, ck, true)
	if err != nil {
		return err
	}
	res.Attempted += base.attempted() + m.attempted() + 2*len(in.warm)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	put("driver.lag_p99_ms", "ms", m.lagP99MS())
	put("driver.cpu_frac", "frac", m.genCPUFrac())
	put("host.steal_frac", "frac", m.stealFrac())
	put("trace.overhead_frac", "frac", m.cpuMSPerOp()/base.cpuMSPerOp()-1)

	ops := m.okOps()
	put("wire.req_kb_per_op", "KiB", float64(m.tx)/1024/float64(ops))
	put("wire.resp_kb_per_op", "KiB", float64(m.rx)/1024/float64(ops))
	if err := reconcile(m, put); err != nil {
		ck.fail(err)
	}
	served := float64(delta.Plans)
	put("service.hit_frac", "frac", ratio(float64(delta.CacheHits), float64(delta.CacheHits+delta.CacheMisses)))
	put("service.coalesced_frac", "frac", ratio(float64(delta.Coalesced), served))
	put("service.rejected_frac", "frac", ratio(float64(delta.Rejected), served))
	res.note("traced server: %d ops, fail %d; untraced baseline %.4g ms CPU/op, traced %.4g",
		m.attempted(), m.failedOps(), base.cpuMSPerOp(), m.cpuMSPerOp())

	pool := in.pool
	if err := fillPool(&pool, opt.seed); err != nil {
		return err
	}
	if err := layerPass(opt, in, &pool, ck, put); err != nil {
		return fmt.Errorf("in-process layer pass: %w", err)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverPass sets up one server and runs the timed phases on it,
// returning the measurement and the /metrics counter deltas.
func serverPass(opt *options, in *inputs, tm *timing, ck *checker, traced bool) (m *measurement, delta serverMetrics, err error) {
	name := "untraced"
	if traced {
		name = "traced"
	}
	s, c, _, err := setUp(opt, in, ck, traced, name)
	if err != nil {
		return nil, delta, err
	}
	defer func() {
		c.close()
		err = errors.Join(err, s.stop())
	}()
	before, err := s.metrics()
	if err != nil {
		return nil, delta, err
	}
	if m, err = measure(s, c, in, tm, ck); err != nil {
		return nil, delta, err
	}
	if err := m.checkValid(); err != nil {
		return nil, delta, err
	}
	after, err := s.metrics()
	if err != nil {
		return nil, delta, err
	}
	delta = serverMetrics{
		Plans:       after.Plans - before.Plans,
		Rejected:    after.Rejected - before.Rejected,
		Coalesced:   after.Coalesced - before.Coalesced,
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
	}
	return m, delta, nil
}

// reconcile splits each traced op's client time (send to last byte) into
// wire time (client minus the server total in X-Suu-Trace), the stage
// sums, and the server time no stage explains, and reports each as a mean
// per op. Every op must carry a trace and every part must be
// non-negative, up to the header's microsecond truncation.
func reconcile(m *measurement, put func(name, unit string, v float64)) error {
	const slackUS = int64(trace.NumStages + 1)
	var n int
	var client, server, wire, unexplained float64
	var stages [trace.NumStages]float64
	var bad int
	for _, ph := range m.phases() {
		for i := range ph.ops {
			o := &ph.ops[i]
			if !o.ok {
				continue
			}
			if !o.traced {
				return errors.New("reconciliation: a traced server answered without X-Suu-Trace")
			}
			n++
			cUS := float64(o.svc) / 1e3
			var sum int64
			for s, d := range o.tr.DurUS {
				stages[s] += float64(d)
				sum += d
			}
			w := cUS - float64(o.tr.TotalUS)
			u := o.tr.TotalUS - sum
			if w < -1 || u < -slackUS {
				bad++
			}
			client += cUS
			server += float64(o.tr.TotalUS)
			wire += w
			unexplained += float64(u)
		}
	}
	if n == 0 {
		return errors.New("reconciliation: no traced ops")
	}
	perOpMS := func(us float64) float64 { return us / 1e3 / float64(n) }
	put("recon.client_ms", "ms", perOpMS(client))
	put("recon.server_ms", "ms", perOpMS(server))
	put("wire.ms_per_op", "ms", perOpMS(wire))
	put("service.unexplained_ms", "ms", perOpMS(unexplained))
	var stageSum float64
	for s, total := range stages {
		stageSum += total
		if name, ok := stageMetrics[trace.Stage(s)]; ok {
			put(name, "ms", perOpMS(total))
		}
	}
	if gap := client - (wire + stageSum + unexplained); math.Abs(gap) > 1e-6*client {
		return fmt.Errorf("reconciliation: client time %.0f µs ≠ wire + stages + unexplained (gap %.3g µs)", client, gap)
	}
	if bad > 0 {
		return fmt.Errorf("reconciliation: %d of %d ops have negative wire or unexplained time", bad, n)
	}
	return nil
}

// fillPool completes a workload's layer pool with the shapes it does not
// generate itself, drawn from cold-mix's generator under the same seed,
// and adds the Monte Carlo inputs, so every traced run reports every
// per-layer metric.
func fillPool(p *layerPool, seed int64) error {
	if len(p.spec128) == 0 || len(p.chains) == 0 {
		cm, err := buildColdMix(newGen(seed, "cold-mix"), 16, 0)
		if err != nil {
			return err
		}
		if len(p.spec128) == 0 {
			p.spec128 = cm.pool.spec128
		}
		if len(p.chains) == 0 {
			p.chains = cm.pool.chains
		}
	}
	var err error
	p.estSEM, p.estChains, err = estimatePool(seed)
	return err
}

// medianDur runs f reps times and returns the median duration of a call.
func medianDur(reps int, f func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2], nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func allJobs(ins *model.Instance) []int {
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}

func firstN(rs []*request, n int) []*request { return rs[:min(n, len(rs))] }

// layerPass times each layer's public functions in this process, at
// GOMAXPROCS=1, on the run's inputs.
func layerPass(opt *options, in *inputs, pool *layerPool, ck *checker, put func(name, unit string, v float64)) error {
	ctx := context.Background()

	// service: the whole in-process hit path and the planner's hit.
	p := service.NewPlanner(service.Config{})
	defer p.Close()
	srv := service.NewServer(p)
	// The first request on a uniform n=64/m=16 instance, so every seed
	// times the same shape.
	hot := in.open[0]
	for _, r := range in.open {
		if r.exp.class == "independent" && r.exp.n == 64 {
			hot = r
			break
		}
	}
	serve := func(int) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", hot.path, bytes.NewReader(hot.body)))
		if rec.Code != 200 {
			return fmt.Errorf("in-process %s: status %d", hot.path, rec.Code)
		}
		return nil
	}
	if err := serve(0); err != nil {
		return err
	}
	d, err := medianDur(2000, serve)
	if err != nil {
		return err
	}
	put("service.serve_hit_us", "us", us(d))
	planReq := pool.uniform64[0].plan
	if _, err := p.Plan(ctx, planReq); err != nil {
		return err
	}
	if d, err = medianDur(2000, func(int) error { _, err := p.Plan(ctx, planReq); return err }); err != nil {
		return err
	}
	put("service.plan_hit_us", "us", us(d))

	// model: request decoding, including instance validation.
	var bodies []*request
	seen := map[int]bool{}
	for _, r := range in.open {
		if !seen[r.key] && len(bodies) < 64 {
			seen[r.key] = true
			bodies = append(bodies, r)
		}
	}
	if d, err = medianDur(3*len(bodies), func(i int) error {
		return json.Unmarshal(bodies[i%len(bodies)].body, new(service.PlanRequest))
	}); err != nil {
		return err
	}
	put("model.decode_us", "us", us(d))

	// sched: fingerprinting.
	var insts []*model.Instance
	for _, set := range [][]*request{firstN(pool.uniform64, 8), pool.spec128, pool.chains} {
		for _, r := range set {
			insts = append(insts, r.plan.Instance)
		}
	}
	if d, err = medianDur(4*len(insts), func(i int) error {
		sched.FingerprintInstance(insts[i%len(insts)])
		return nil
	}); err != nil {
		return err
	}
	put("sched.fingerprint_us", "us", us(d))

	if err := lpPass(pool, put); err != nil {
		return err
	}
	if err := simPass(pool, put); err != nil {
		return err
	}
	return storePass(opt, ck, put)
}

// lpPass times the LP solves and the rounding on the workload's plan
// instances, and counts what the solver does for them.
func lpPass(pool *layerPool, put func(name, unit string, v float64)) error {
	n64 := firstN(pool.uniform64, 8)
	type sol struct {
		x [][]float64
		t float64
	}
	sols := make([]sol, len(n64))
	d, err := medianDur(len(n64), func(i int) error {
		var err error
		sols[i].x, sols[i].t, err = rounding.SolveLP1(n64[i].plan.Instance, allJobs(n64[i].plan.Instance), 0.5)
		return err
	})
	if err != nil {
		return err
	}
	put("lp.lp1_solve_ms.n64m16", "ms", ms(d))
	if d, err = medianDur(len(pool.spec128), func(i int) error {
		ins := pool.spec128[i].plan.Instance
		_, _, err := rounding.SolveLP1(ins, allJobs(ins), 0.5)
		return err
	}); err != nil {
		return err
	}
	put("lp.lp1_solve_ms.n128m32", "ms", ms(d))
	if d, err = medianDur(len(pool.chains), func(i int) error {
		ins := pool.chains[i].plan.Instance
		chains, err := ins.Chains()
		if err != nil {
			return err
		}
		_, _, _, _, err = rounding.SolveLP2(ins, chains)
		return err
	}); err != nil {
		return err
	}
	put("lp.lp2_solve_ms", "ms", ms(d))

	rounded := make([]*rounding.LP1Result, len(n64))
	if d, err = medianDur(len(n64), func(i int) error {
		ins := n64[i].plan.Instance
		var err error
		rounded[i], err = rounding.RoundFractional(ins, allJobs(ins), 0.5, sols[i].x, sols[i].t)
		return err
	}); err != nil {
		return err
	}
	put("rounding.round_ms", "ms", ms(d))
	repairs, ratioSum := 0, 0.0
	for _, r := range rounded {
		repairs += r.Repairs
		ratioSum += float64(r.Length) / r.TFrac
	}
	put("rounding.repairs", "count", float64(repairs))
	put("rounding.length_over_tstar", "ratio", ratioSum/float64(len(rounded)))
	if d, err = medianDur(4*len(rounded), func(i int) error {
		rounded[i%len(rounded)].Assignment.Serialize()
		return nil
	}); err != nil {
		return err
	}
	put("sched.serialize_us", "us", us(d))

	// Solver counters over one workspace: first each plan solved as the
	// planner solves it, then each SEM trial's round chain re-solved warm
	// as SEM does, with the job sets SEM saw.
	ws := rounding.NewWorkspace()
	for _, set := range [][]*request{n64, pool.spec128} {
		for _, r := range set {
			ws.Begin()
			if _, err := (*rounding.Cache)(nil).RoundLP1Ws(ws, r.plan.Instance, allJobs(r.plan.Instance), 0.5); err != nil {
				return err
			}
		}
	}
	for _, r := range pool.chains {
		chains, err := r.plan.Instance.Chains()
		if err != nil {
			return err
		}
		ws.BeginLP2()
		if _, err := (*rounding.LP2Cache)(nil).RoundLP2Ws(ws, r.plan.Instance, chains); err != nil {
			return err
		}
	}
	for _, r := range pool.estSEM {
		if err := replaySEMChains(ws, r, 8); err != nil {
			return err
		}
	}
	s := ws.Solver()
	put("lp.cold_solves", "count", float64(s.ColdSolves))
	put("lp.warm_solves", "count", float64(s.WarmSolves))
	put("lp.warm_fallbacks", "count", float64(s.WarmFallbacks))
	put("lp.dense_fallbacks", "count", float64(s.DenseFallbacks))
	return nil
}

// semCapture runs SEM and exposes the world of the trial in progress, so
// SEM's round callback can read the job set each round solves for.
type semCapture struct {
	sem *core.SEM
	w   *sim.World
}

func (c *semCapture) Name() string { return c.sem.Name() }

func (c *semCapture) Run(w *sim.World) error {
	c.w = w
	defer func() { c.w = nil }()
	return c.sem.Run(w)
}

// replaySEMChains runs trials SEM trials on r's instance and re-solves
// each round's LP1 as the next link of ws's warm chain.
func replaySEMChains(ws *rounding.Workspace, r *service.EstimateRequest, trials int) error {
	ins := r.Instance
	k := core.Rounds(ins.M, ins.N)
	var replayErr error
	c := &semCapture{}
	c.sem = &core.SEM{Cache: rounding.NewCache(), OnRound: func(round, remaining int) {
		if round > k || remaining == 0 || replayErr != nil {
			return
		}
		if round == 1 {
			ws.Begin()
		}
		_, replayErr = (*rounding.Cache)(nil).RoundLP1Chained(ws, ins, c.w.Remaining(), math.Pow(2, float64(round-2)))
	}}
	if _, err := sim.MonteCarlo(ins, c, trials, r.Seed, 1); err != nil {
		return err
	}
	return replayErr
}

// simPass times Monte Carlo trials as the estimate endpoint runs them
// (a fresh policy per estimate, one worker here), and counts SEM rounds.
func simPass(pool *layerPool, put func(name, unit string, v float64)) error {
	perTrial := func(set []*service.EstimateRequest, policy func(ins *model.Instance) sim.Policy) (float64, error) {
		var total time.Duration
		trials := 0
		for _, r := range set {
			start := time.Now()
			if _, err := sim.MonteCarlo(r.Instance, policy(r.Instance), r.Trials, r.Seed, 1); err != nil {
				return 0, err
			}
			total += time.Since(start)
			trials += r.Trials
		}
		return us(total) / float64(trials), nil
	}
	rounds, executions := 0, 0
	semUS, err := perTrial(pool.estSEM, func(ins *model.Instance) sim.Policy {
		k := core.Rounds(ins.M, ins.N)
		return &core.SEM{Cache: rounding.NewCache(), OnRound: func(round, remaining int) {
			switch {
			case round > k:
				executions++
			case remaining > 0:
				rounds++
			}
		}}
	})
	if err != nil {
		return err
	}
	chainUS, err := perTrial(pool.estChains, func(*model.Instance) sim.Policy {
		return &core.Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}
	})
	if err != nil {
		return err
	}
	// Weighted 3:1, SEM to chains, like an auto-policy estimate mix.
	put("sim.trial_us", "us", (3*semUS+chainUS)/4)
	put("core.sem_rounds_per_trial", "count", ratio(float64(rounds), float64(executions)))
	return nil
}

// storePass times the disk and memory tiers on the run's verified
// payloads, with suud's default disk settings, and checks every read.
func storePass(opt *options, ck *checker, put func(name, unit string, v float64)) error {
	ck.mu.Lock()
	frames := ck.frames
	ck.mu.Unlock()
	if len(frames) == 0 {
		return errors.New("no verified payloads to store")
	}
	key := func(i int) store.Key { return store.Key{Hi: splitmix(uint64(i)), Lo: uint64(i) + 1} }
	ctx := context.Background()
	dir := filepath.Join(opt.runDir, "layer-store")
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, store.DiskConfig{Fsync: store.FsyncInterval, FsyncInterval: 100 * time.Millisecond, CompactBytes: 256 << 20})
	if err != nil {
		return err
	}
	defer disk.Close()
	mem := store.NewMem(64<<20, 0)
	for _, tier := range []struct {
		s        store.PlanStore
		put, get string // metric names; memory puts are not reported
	}{{disk, "store.disk_put_us", "store.disk_get_us"}, {mem, "", "store.mem_get_us"}} {
		d, err := medianDur(len(frames), func(i int) error { return tier.s.Put(ctx, key(i), frames[i]) })
		if err != nil {
			return err
		}
		if tier.put != "" {
			put(tier.put, "us", us(d))
		}
		if d, err = medianDur(3*len(frames), func(i int) error {
			i %= len(frames)
			got, _, err := tier.s.Get(ctx, key(i))
			if err == nil && !bytes.Equal(got, frames[i]) {
				err = fmt.Errorf("%s tier returned different bytes for key %d", tier.s.Name(), i)
			}
			return err
		}); err != nil {
			return err
		}
		put(tier.get, "us", us(d))
	}
	return nil
}
