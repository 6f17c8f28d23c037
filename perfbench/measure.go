package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// counters is one reading of the CPU counters a measurement is cut from.
type counters struct {
	at     time.Time
	srvCPU float64 // server CPU seconds
	gen    float64 // generator CPU seconds
	host   hostCPU
}

func readCounters(s *server) (counters, error) {
	c := counters{gen: selfCPUSeconds(), at: time.Now()}
	var err error
	if c.srvCPU, err = s.cpuSeconds(); err != nil {
		return c, err
	}
	c.host, err = readHostCPU()
	return c, err
}

// rounds is how many open-loop/closed-loop pairs the timed phases are
// cut into. The host's speed on a shared VM moves in plateaus of ten
// seconds or so (a pinned spin loop read 10.5k to 18.7k iterations a
// second within two minutes), so each phase is spread over the whole run
// instead of owning one stretch of it.
const rounds = 10

// usage is the wall time and CPU time spent in one kind of phase.
type usage struct {
	wall, srvCPU, gen float64 // seconds
}

func (u *usage) add(a, b counters) {
	u.wall += b.at.Sub(a.at).Seconds()
	u.srvCPU += b.srvCPU - a.srvCPU
	u.gen += b.gen - a.gen
}

// measurement is what the timed phases of one server yield.
type measurement struct {
	// open and closed hold one phase per round.
	open, closed []*phase
	// openUse and closedUse sum the open-loop and closed-loop phases.
	openUse, closedUse usage
	// first and last are read at the first phase's start and the last
	// phase's end.
	first, last counters
	// steal samples the host's steal over all phases.
	steal  []stealSample
	tx, rx int64 // wire bytes over all phases
}

// timing is how a run's timed phases are laid out.
type timing struct {
	offsets            []time.Duration // open-loop arrivals from the phase start
	openLen, closedLen time.Duration   // total length of each kind of phase
	openConns          int             // connections the open loop sends on
}

// measure runs rounds open-loop/closed-loop pairs: the open loop's
// schedule and the closed loop's requests are cut into rounds equal
// pieces, taken in order.
func measure(s *server, c *client, in *inputs, tm *timing, ck *checker) (*measurement, error) {
	m := &measurement{}
	var err error
	tx0, rx0 := c.tx.Load(), c.rx.Load()
	if m.first, err = readCounters(s); err != nil {
		return nil, err
	}
	sp, err := startStealSampler()
	if err != nil {
		return nil, err
	}
	// Stop the sampler on every path out; on success its samples are
	// taken below and this is a no-op.
	defer sp.finish()
	openSeg, closedSeg := tm.openLen/rounds, tm.closedLen/rounds
	offsets := tm.offsets
	mark, sent, used := m.first, 0, 0
	for r := 0; r < rounds; r++ {
		lo := time.Duration(r) * openSeg
		var segOffsets []time.Duration
		for sent+len(segOffsets) < len(offsets) && (r == rounds-1 || offsets[sent+len(segOffsets)] < lo+openSeg) {
			segOffsets = append(segOffsets, offsets[sent+len(segOffsets)]-lo)
		}
		ph := c.openLoop(in.open[sent:sent+len(segOffsets)], segOffsets, openSeg, tm.openConns, ck)
		sent += len(segOffsets)
		m.open = append(m.open, ph)
		next, err := readCounters(s)
		if err != nil {
			return nil, err
		}
		m.openUse.add(mark, next)
		ph = c.closedLoop(in.closed[used:], closedSeg, ck)
		used += len(ph.ops)
		m.closed = append(m.closed, ph)
		if mark, err = readCounters(s); err != nil {
			return nil, err
		}
		m.closedUse.add(next, mark)
	}
	m.last = mark
	if m.steal, err = sp.finish(); err != nil {
		return nil, err
	}
	m.tx, m.rx = c.tx.Load()-tx0, c.rx.Load()-rx0
	return m, nil
}

// phases returns every open-loop and closed-loop phase.
func (m *measurement) phases() []*phase { return append(append([]*phase{}, m.open...), m.closed...) }

// genFrac is the generator's CPU share over u.
func (u usage) genFrac() float64 { return ratio(u.gen, u.wall) }

// srvBusy is the server's CPU share over u.
func (u usage) srvBusy() float64 { return ratio(u.srvCPU, u.wall) }

// genCPUFrac is the generator's CPU share over all phases.
func (m *measurement) genCPUFrac() float64 {
	return ratio(m.last.gen-m.first.gen, m.last.at.Sub(m.first.at).Seconds())
}

// genPeakFrac is the generator's higher CPU share of the two kinds of
// phase.
func (m *measurement) genPeakFrac() float64 {
	return math.Max(m.openUse.genFrac(), m.closedUse.genFrac())
}

// stealFrac is the host's steal share over all phases.
func (m *measurement) stealFrac() float64 {
	a, b := m.first.host, m.last.host
	return ratio(b.steal-a.steal, b.total-a.total)
}

// counts returns attempted, succeeded and failed ops over all phases.
func (m *measurement) counts() (attempted, ok, failed int) {
	for _, ph := range m.phases() {
		a, o, f := ph.counts()
		attempted, ok, failed = attempted+a, ok+o, failed+f
	}
	return attempted, ok, failed
}

func (m *measurement) okOps() int {
	_, ok, _ := m.counts()
	return ok
}

func (m *measurement) attempted() int {
	a, _, _ := m.counts()
	return a
}

func (m *measurement) failedOps() int {
	_, _, f := m.counts()
	return f
}

// opsIn counts the ops of phases.
func opsIn(phases []*phase) int {
	n := 0
	for _, ph := range phases {
		n += len(ph.ops)
	}
	return n
}

// cpuMSPerOp is server CPU over all phases per completed op.
func (m *measurement) cpuMSPerOp() float64 {
	return (m.last.srvCPU - m.first.srvCPU) * 1e3 / float64(max(m.okOps(), 1))
}

// satOpsPerSec is the closed-loop rate: ops completed inside the
// closed-loop phases' windows over their total length, or over the time
// taken if the pre-generated requests ran out first.
func (m *measurement) satOpsPerSec() float64 {
	var done, ok int
	var window, elapsed time.Duration
	ranOut := false
	for _, ph := range m.closed {
		_, n, _ := ph.counts()
		ok += n
		elapsed += ph.elapsed
		window += ph.window
		done += ph.completedBy(ph.start.Add(ph.window))
		ranOut = ranOut || ph.elapsed < ph.window
	}
	if ranOut {
		return float64(ok) / elapsed.Seconds()
	}
	return float64(done) / window.Seconds()
}

// checkValid rejects a run whose generator saturated.
func (m *measurement) checkValid() error {
	if peak := m.genPeakFrac(); peak > saturatedFrac {
		return fmt.Errorf("invalid run: the load generator saturated (%.2f of its CPU in one phase, limit %.2f)",
			peak, saturatedFrac)
	}
	return nil
}

// stealEvery is the period of the open loop's steal samples.
const stealEvery = 50 * time.Millisecond

type stealSample struct {
	at   time.Time
	host hostCPU
}

// stealSampler reads the host's steal every stealEvery until finished.
type stealSampler struct {
	samples []stealSample
	err     error
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startStealSampler() (*stealSampler, error) {
	sp := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	if err := sp.take(); err != nil {
		return nil, err
	}
	go func() {
		defer close(sp.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case <-t.C:
				if sp.err = sp.take(); sp.err != nil {
					return
				}
			}
		}
	}()
	return sp, nil
}

func (sp *stealSampler) take() error {
	h, err := readHostCPU()
	if err == nil {
		sp.samples = append(sp.samples, stealSample{at: time.Now(), host: h})
	}
	return err
}

// finish stops the sampler and returns its samples, a final one
// included. Calls after the first only add another final sample.
func (sp *stealSampler) finish() ([]stealSample, error) {
	sp.once.Do(func() { close(sp.stop) })
	<-sp.done
	if sp.err != nil {
		return nil, sp.err
	}
	return sp.samples, sp.take()
}

// stealBetween is the host's steal share over [a, b], from the samples
// that bracket it.
func stealBetween(ss []stealSample, a, b time.Time) float64 {
	if len(ss) == 0 {
		return 0
	}
	i := max(sort.Search(len(ss), func(k int) bool { return ss[k].at.After(a) })-1, 0)
	j := min(sort.Search(len(ss), func(k int) bool { return !ss[k].at.Before(b) }), len(ss)-1)
	return ratio(ss[j].host.steal-ss[i].host.steal, ss[j].host.total-ss[i].host.total)
}

// On a shared VM the host steals the CPUs in bursts, and a burst stalls
// every request in flight: pooled over whole runs, hot-zipf's p99 read
// 2 ms in one run and 8 ms in the next, and 550 ms in one run of an
// earlier version. So each round's open loop is cut into slices of
// sliceLen and host steal is measured in each. Each latency figure comes
// from the quietest slices that hold a quarter of the arrivals, and at
// least the figure's own minimum: p50Samples for the p50, tailSamples for
// the p99 so that ten samples lie beyond it. Those slices, taken in order
// of steal, are grouped into windows of at least that minimum, and the
// figure is the median over the windows of the window's own quantile: a
// slice that the steal samples missed, or a GC cycle, then moves one
// window, not the figure. Over runs that stole up to 17% of the host,
// slices of a tenth of a second found quiet stretches that one-second
// slices did not.
const (
	sliceLen    = 100 * time.Millisecond
	p50Samples  = 100
	tailSamples = 1000
)

// openLatencies returns the open-loop p50 and p99, from due time to the
// last response byte, and how the p99 was taken: how many arrivals it
// rests on, in how many windows, and those slices' steal share. Failed
// and unsent arrivals count as slower than any limit.
func (m *measurement) openLatencies() (p50, p99 float64, arrivals, windows int, steal float64) {
	var sl []quietSlice
	for _, ph := range m.open {
		k := max(1, int(ph.window/sliceLen))
		w := ph.window / time.Duration(k)
		seg := make([]quietSlice, k)
		for i := range ph.ops {
			o := &ph.ops[i]
			v := failedLatency
			if o.ok {
				v = float64(o.lat) / 1e6
			}
			idx := min(int(o.due/w), k-1)
			seg[idx].lat = append(seg[idx].lat, v)
		}
		for i := range seg {
			a := ph.start.Add(time.Duration(i) * w)
			seg[i].steal = stealBetween(m.steal, a, a.Add(w))
		}
		sl = append(sl, seg...)
	}
	sort.SliceStable(sl, func(a, b int) bool { return sl[a].steal < sl[b].steal })
	total := opsIn(m.open)
	p50, _, _, _ = quietQuantile(sl, total, 0.5, 0.05, p50Samples)
	p99, arrivals, windows, steal = quietQuantile(sl, total, 0.99, 0.005, tailSamples)
	return p50, p99, arrivals, windows, steal
}

// quietSlice is one slice of an open loop: its arrivals' latencies and
// the host's steal share over it.
type quietSlice struct {
	lat   []float64
	steal float64
}

// quietQuantile takes the slices sl, sorted by steal, until they hold a
// quarter of the total arrivals and at least need, groups them into
// windows of at least need arrivals, and returns the median over the
// windows of their local q-quantiles, with the arrivals and windows used
// and the mean steal of the slices used.
func quietQuantile(sl []quietSlice, total int, q, h float64, need int) (v float64, arrivals, windows int, steal float64) {
	want := min(max(need, total/4), total)
	var groups [][]float64
	var cur []float64
	used := 0
	for _, s := range sl {
		if arrivals >= want {
			break
		}
		cur = append(cur, s.lat...)
		arrivals += len(s.lat)
		steal += s.steal
		used++
		if len(cur) >= need {
			groups, cur = append(groups, cur), nil
		}
	}
	if len(groups) == 0 {
		groups = append(groups, cur)
	} else {
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	vals := make([]float64, len(groups))
	for i, g := range groups {
		sort.Float64s(g)
		vals[i] = localQuantile(g, q, h)
	}
	return median(vals), arrivals, len(groups), steal / float64(max(used, 1))
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[n/2]
}

// localQuantile estimates the q-quantile of sorted xs as the mean of the
// order statistics within h of it. One order statistic swings from run to
// run where the distribution is thin: in the tail, and at cold-mix's
// median, which falls between requests served alone and requests that
// waited behind a chain plan. Their local mean swings less.
func localQuantile(sorted []float64, q, h float64) float64 {
	n := len(sorted)
	lo := int(math.Floor((q - h) * float64(n)))
	hi := int(math.Ceil((q + h) * float64(n)))
	lo, hi = max(lo, 0), min(hi, n)
	if hi <= lo {
		return pctl(sorted, q)
	}
	sum := 0.0
	for _, x := range sorted[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// lagP99MS is the p99 generator lateness over arrivals that found a
// connection free.
func (m *measurement) lagP99MS() float64 {
	var lags []float64
	for _, ph := range m.open {
		for _, o := range ph.ops {
			if o.lagOK {
				lags = append(lags, float64(o.lag)/1e6)
			}
		}
	}
	if len(lags) == 0 {
		return 0
	}
	sort.Float64s(lags)
	return pctl(lags, 0.99)
}
