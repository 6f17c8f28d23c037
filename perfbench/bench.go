package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// Phase split of --seconds: the open-loop phase gets openShare, the
// closed-loop phase the rest. The open loop needs the longer share: its
// p99 needs about 1000 arrivals in its quiet slices at a third of
// saturation.
const openShare = 0.8

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the last set-up's server is the one measured.
const setupReps = 5

// saturatedFrac is the generator CPU share above which a run is invalid:
// the generator, not the server, would be setting the pace.
const saturatedFrac = 0.9

// failedLatency stands for the latency of a failed or unsent arrival,
// which counts as slower than any limit.
var failedLatency = math.Inf(1)

func phaseLengths(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = time.Duration(float64(total) * openShare).Round(time.Millisecond)
	return open, total - open
}

// closedCount is how many closed-loop requests a workload pre-generates:
// room for twice the saturation rate it was calibrated at, as the host's
// speed moves that much. cold-mix's bodies are distinct, so the margin
// is memory the generator holds.
func closedCount(wl *workload, closed time.Duration) int {
	return int(math.Ceil(wl.sat*2*closed.Seconds())) + 64
}

func runWorkload(wl *workload, opt *options) (*result, error) {
	g := newGen(opt.seed, wl.name)
	tm := &timing{openConns: opt.conns}
	if wl.openConns > 0 {
		tm.openConns = min(wl.openConns, opt.conns)
	}
	tm.openLen, tm.closedLen = phaseLengths(opt.seconds)
	tm.offsets = schedule(g, wl.rate, tm.openLen)
	in, err := wl.build(g, len(tm.offsets), closedCount(wl, tm.closedLen))
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res := &result{Metrics: map[string]metric{}}
	ck := newChecker()
	if opt.trace {
		err = tracedRun(opt, in, tm, ck, res)
	} else {
		err = untracedRun(opt, in, tm, ck, res)
	}
	if err != nil {
		return nil, err
	}
	refs, refErr := ck.checkReferences()
	res.Attempted += len(ck.sampled)
	if refErr != nil {
		ck.fail(refErr)
	}
	res.note("in-process reference check: %d of %d sampled payloads identical", refs, len(ck.sampled))
	failures, errs := ck.failed()
	res.Failed = failures
	res.Correct = failures == 0
	if errs != nil {
		res.note("FAILURES: %v", errs)
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		if got.Unit != m.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("%d metrics measured, want %d", len(res.Metrics), len(want))
	}
	return res, nil
}

// setUp starts a server and runs the workload's warm-up on it, timing
// suud's exec through /readyz to the end of the warm-up.
func setUp(opt *options, in *inputs, ck *checker, traced bool, name string) (*server, *client, float64, error) {
	start := time.Now()
	s, err := startServer(opt, filepath.Join(opt.runDir, name), traced)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := s.waitReady(30 * time.Second); err != nil {
		return nil, nil, 0, errors.Join(err, s.stop())
	}
	c := newClient(s.base, opt.conns)
	c.closedLoop(in.warm, 0, ck)
	return s, c, time.Since(start).Seconds(), nil
}

func untracedRun(opt *options, in *inputs, tm *timing, ck *checker, res *result) (err error) {
	var setups []float64
	var s *server
	var c *client
	for i := 0; i < setupReps; i++ {
		si, ci, d, err := setUp(opt, in, ck, false, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, d)
		res.Attempted += len(in.warm)
		if i < setupReps-1 {
			ci.close()
			if err := si.stop(); err != nil {
				return err
			}
			continue
		}
		s, c = si, ci
	}
	defer func() {
		c.close()
		err = errors.Join(err, s.stop())
	}()
	m, err := measure(s, c, in, tm, ck)
	if err != nil {
		return err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	if err := m.checkValid(); err != nil {
		return err
	}
	res.Attempted += m.attempted()
	p50, p99, quietArrivals, windows, quietSteal := m.openLatencies()
	sort.Float64s(setups)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("lat_p50_ms", "ms", p50)
	put("lat_p99_ms", "ms", p99)
	put("sat_ops_s", "1/s", m.satOpsPerSec())
	put("cpu_ms_per_op", "ms", m.cpuMSPerOp())
	put("setup_s", "s", setups[len(setups)/2])
	put("rss_mb", "MiB", rss)
	for name, v := range res.Metrics {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			// A failed arrival sits at this percentile; report the
			// largest finite number, the run fails anyway.
			res.Metrics[name] = metric{Value: math.MaxFloat64, Unit: v.Unit}
		}
	}
	res.note("fail_frac %.4g (ops %d, failed %d); open-loop arrivals %d, closed-loop ops %d",
		float64(m.failedOps())/float64(max(m.attempted(), 1)), m.attempted(), m.failedOps(), opsIn(m.open), opsIn(m.closed))
	res.note("p99 over the %d of %d open-loop arrivals due in the quietest slices, median of %d windows (host steal %.4f there, %.4f over the run)",
		quietArrivals, opsIn(m.open), windows, quietSteal, m.stealFrac())
	res.note("server busy %.3f open, %.3f closed; driver.cpu_frac %.3f (peak phase %.3f), driver.lag_p99_ms %.3f; set-ups %.3f s",
		m.openUse.srvBusy(), m.closedUse.srvBusy(), m.genCPUFrac(), m.genPeakFrac(), m.lagP99MS(), setups)
	return nil
}
