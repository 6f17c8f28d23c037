// Command suuload is the open-loop load harness for cmd/suud, the command
// line over internal/load, in the fabbench tradition: arrivals are paced
// by a Poisson or fixed-rate process independent of completions (open
// mode), so queueing delay shows up in the measured latencies instead of
// being hidden by client self-throttling; a closed mode (N workers
// back-to-back) exists for comparison. Per-op latencies land in a
// log-scale stats.Histogram and the run emits a human summary on stderr
// plus, with -json, a BENCH_*.json-compatible bench.Report on stdout.
//
// Example against a local suud:
//
//	suud &
//	suuload -url http://127.0.0.1:8650 -rate 300 -duration 10s \
//	        -family uniform -m 16 -n 64 -instances 4 -json > load.json
//
// -url takes a comma-separated list of replicas for fleet mode: each
// arrival prefers one replica in a rotating order and fails over to the
// rest, and the report adds each replica's /metrics snapshot.
//
// Batch mode (-op plan-batch) issues /v1/plan/batch requests whose sizes
// follow -batch-dist around -batch-size; -item-rate offers load in
// items/second (request rate = item-rate / batch-size), which is how batch
// and single runs are compared at equal offered item rate. The report adds
// an item-level ledger (items_issued = items_done + items_errors) next to
// the request ledger.
//
// Traffic shaping: -curve ramps or switches the offered rate over the run
// (constant:<rps>, linstep:<from>:<to>:<ramp>, switching:<hi>:<lo>:<period>)
// and -pop skews which spec each arrival requests (roundrobin, zipf:<s>).
// -record <path> writes a framed binary trace of every issued request;
// -replay <path> re-issues a recorded trace at -speed × the original
// schedule, rebuilding the exact request bodies from the trace header (the
// shape flags are ignored on replay). Summarize a trace with cmd/suutrace.
//
// With -smoke the process exits nonzero unless the run completed requests
// with zero request and item errors — the CI contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/internal/bench"
	"repro/internal/load"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8650", "suud base URL; a comma-separated list runs fleet mode (per-request rotation with failover)")
		mode        = flag.String("mode", "open", "open (paced arrivals) or closed (back-to-back workers)")
		arrival     = flag.String("arrival", "poisson", "open-mode arrival process: poisson or fixed")
		rate        = flag.Float64("rate", 100, "open-mode offered load, requests/second")
		duration    = flag.Duration("duration", 10*time.Second, "issuing window")
		concurrency = flag.Int("concurrency", 64, "closed-mode workers / open-mode in-flight cap")
		op          = flag.String("op", "plan", "request type: plan, estimate, or plan-batch")
		batchSize   = flag.Int("batch-size", 0, "plan-batch mean items per request (default 8)")
		batchDist   = flag.String("batch-dist", "", "plan-batch size distribution: fixed or uniform (default fixed)")
		itemRate    = flag.Float64("item-rate", 0, "plan-batch open-mode offered load in items/second (overrides -rate; request rate becomes item-rate/batch-size)")
		family      = flag.String("family", "uniform", "instance family (see workload.Spec)")
		m           = flag.Int("m", 16, "machines per instance")
		n           = flag.Int("n", 64, "jobs per instance")
		instances   = flag.Int("instances", 4, "distinct instances cycled round-robin (repeats exercise the plan cache)")
		trials      = flag.Int("trials", 0, "estimate-op Monte Carlo trials (0 = server default)")
		seed        = flag.Int64("seed", 1, "seed for instance generation and arrivals")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-attempt client timeout")
		retries     = flag.Int("retries", 0, "extra attempts per request beyond the first (conn errors and 429/503 retry with backoff)")
		curve       = flag.String("curve", "", "open-mode rate curve: constant[:rps], linstep:from:to:ramp, or switching:hi:lo:period (default constant at -rate)")
		pop         = flag.String("pop", "", "spec popularity: roundrobin (default) or zipf:s")
		record      = flag.String("record", "", "write a binary trace of every issued request to this path")
		replay      = flag.String("replay", "", "re-issue a recorded trace instead of generating load (shape flags are ignored)")
		speed       = flag.Float64("speed", 1, "replay schedule scale: 2 replays twice as fast")
		jsonOut     = flag.Bool("json", false, "emit a bench.Report JSON document on stdout")
		smoke       = flag.Bool("smoke", false, "exit nonzero unless done > 0 and errors == 0")
	)
	flag.Parse()

	// On replay the spec catalog comes from the recording's header.
	var specs []workload.Spec
	if *replay == "" {
		specs = workload.Catalog(*family, *m, *n, *instances, *seed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Split on commas and blanks alike, so the list indexes rep.Fleet.
	urls := strings.FieldsFunc(*url, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	rep, err := load.Run(ctx, load.Config{
		URLs:        urls,
		Mode:        *mode,
		Arrival:     *arrival,
		Rate:        *rate,
		Concurrency: *concurrency,
		Duration:    *duration,
		Op:          *op,
		BatchSize:   *batchSize,
		BatchDist:   *batchDist,
		ItemRate:    *itemRate,
		Specs:       specs,
		Trials:      *trials,
		Seed:        *seed,
		Timeout:     *timeout,
		MaxAttempts: *retries + 1,
		Curve:       *curve,
		Popularity:  *pop,
		RecordPath:  *record,
		ReplayPath:  *replay,
		ReplaySpeed: *speed,
	})
	if err != nil {
		trace.Fatal("load run failed", "err", err)
	}

	fmt.Fprintf(os.Stderr,
		"suuload: %s %s %.1fs: issued=%d done=%d errors=%d rejected=%d dropped=%d\n"+
			"suuload: throughput=%.1f req/s lat p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		rep.Mode, rep.Op, rep.DurationS, rep.Issued, rep.Done, rep.Errors, rep.Rejected, rep.Dropped,
		rep.Throughput, rep.LatP50*1e3, rep.LatP95*1e3, rep.LatP99*1e3, rep.LatMax*1e3)
	fmt.Fprintf(os.Stderr,
		"suuload: wire: read=%d bytes (%.1f KB/s) — payload cost per delivered item: %.0f bytes\n",
		rep.BytesRead, rep.BytesPerSec/1e3, perItemBytes(rep))
	if rep.Curve != "" || rep.Popularity != "" || rep.Recorded > 0 || *replay != "" {
		fmt.Fprintf(os.Stderr, "suuload: traffic: curve=%s pop=%s drain=%.2fs", rep.Curve, rep.Popularity, rep.DrainS)
		if rep.Recorded > 0 {
			fmt.Fprintf(os.Stderr, " recorded=%d->%s", rep.Recorded, *record)
			if rep.RecordErrors > 0 {
				fmt.Fprintf(os.Stderr, " RECORD_ERRORS=%d", rep.RecordErrors)
			}
		}
		if *replay != "" {
			fmt.Fprintf(os.Stderr, " replayed=%s@%gx", *replay, rep.ReplaySpeed)
		}
		fmt.Fprintln(os.Stderr)
	}
	if rep.Op == "plan-batch" {
		fmt.Fprintf(os.Stderr,
			"suuload: items(%s size %d): issued=%d done=%d errors=%d item-throughput=%.1f items/s\n",
			rep.BatchDist, rep.BatchSize, rep.ItemsIssued, rep.ItemsDone, rep.ItemsErrors, rep.ItemThroughput)
	}
	if rep.Degraded != 0 || rep.ItemsDegraded != 0 || rep.InjectedErrors != 0 ||
		rep.OrganicServerErrors != 0 || rep.Retries != 0 || rep.ConnErrors != 0 || rep.BreakerOpens != 0 {
		fmt.Fprintf(os.Stderr,
			"suuload: resilience: degraded=%d items_degraded=%d injected_errors=%d organic_5xx=%d retries=%d conn_errors=%d breaker_opens=%d\n",
			rep.Degraded, rep.ItemsDegraded, rep.InjectedErrors, rep.OrganicServerErrors,
			rep.Retries, rep.ConnErrors, rep.BreakerOpens)
	}
	if vi := rep.ServerVersion; vi != nil {
		fmt.Fprintf(os.Stderr, "suuload: server build: %s %s (%s %s/%s, gomaxprocs=%d)\n",
			vi.Module, vi.Version, vi.GoVersion, vi.OS, vi.Arch, vi.GOMAXPROCS)
	}
	if rep.TracedResponses > 0 {
		// Per-source server-side attribution: where the server says each
		// class of request spent its time, from parsed X-Suu-Trace headers.
		fmt.Fprintf(os.Stderr, "suuload: traced %d/%d responses; server-side attribution:\n",
			rep.TracedResponses, rep.Done)
		srcs := make([]string, 0, len(rep.TracedBySource))
		for src := range rep.TracedBySource {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			n := rep.TracedBySource[src]
			fmt.Fprintf(os.Stderr, "suuload:   %-9s n=%-6d server=%.1fms%s\n",
				src, n, rep.ServerTotalSeconds[src]*1e3/float64(n), stageCells(rep.ServerStageSeconds[src], n))
		}
	}
	if sm := rep.ServerMetrics; sm != nil {
		fmt.Fprintf(os.Stderr, "suuload: server %v\n", *sm)
	}
	if len(rep.Fleet) > 0 {
		up := 0
		for _, sn := range rep.Fleet {
			if sn != nil {
				up++
			}
		}
		fmt.Fprintf(os.Stderr,
			"suuload: fleet: replicas=%d up=%d hit_rate=%.3f store_hits=%d plans_computed=%d\n",
			len(rep.Fleet), up, rep.FleetHitRate, rep.FleetStoreHits, rep.FleetPlansComputed)
		for i, sn := range rep.Fleet {
			if sn == nil {
				fmt.Fprintf(os.Stderr, "suuload: fleet[%d] %s: unreachable\n", i, urls[i])
				continue
			}
			fmt.Fprintf(os.Stderr,
				"suuload: fleet[%d] %s: plans=%d computed=%d hits=%d coalesced=%d disk_hits=%d peer_hits=%d\n",
				i, urls[i], sn.Plans, sn.PlansComputed, sn.CacheHits, sn.Coalesced, sn.StoreDiskHits, sn.StorePeerHits)
		}
	}

	if *jsonOut {
		report := bench.NewReport(bench.Config{Seed: *seed})
		report.Notes = append(report.Notes,
			fmt.Sprintf("suuload %s/%s against %s: %d×%s m=%d n=%d", rep.Mode, rep.Arrival, *url, *instances, *family, *m, *n))
		if rep.Curve != "" || rep.Popularity != "" {
			report.Notes = append(report.Notes,
				fmt.Sprintf("traffic: curve=%s pop=%s", rep.Curve, rep.Popularity))
		}
		if *replay != "" {
			report.Notes = append(report.Notes,
				fmt.Sprintf("replay of %s at %gx", *replay, rep.ReplaySpeed))
		}
		rec := bench.Record{
			Experiment: "suuload-" + *op,
			NsPerOp:    int64(rep.LatMean * 1e9),
			Header: []string{"mode", "offered_rps", "throughput_rps", "done", "errors",
				"p50_ms", "p95_ms", "p99_ms", "hit_rate"},
			Rows: [][]string{{
				rep.Mode,
				fmt.Sprintf("%.1f", rep.OfferedRate),
				fmt.Sprintf("%.1f", rep.Throughput),
				fmt.Sprintf("%d", rep.Done),
				fmt.Sprintf("%d", rep.Errors),
				fmt.Sprintf("%.3f", rep.LatP50*1e3),
				fmt.Sprintf("%.3f", rep.LatP95*1e3),
				fmt.Sprintf("%.3f", rep.LatP99*1e3),
				hitRateCell(rep),
			}},
			Extra: map[string]float64{
				"throughput_rps": rep.Throughput,
				"lat_p50_s":      rep.LatP50,
				"lat_p95_s":      rep.LatP95,
				"lat_p99_s":      rep.LatP99,
				"errors":         float64(rep.Errors),
				"done":           float64(rep.Done),
				"issued":         float64(rep.Issued),
				// Item-level ledger: for single ops these mirror the
				// request counts, so batch and single runs compare at
				// equal offered item rate.
				"items_rps":             rep.ItemThroughput,
				"items_issued":          float64(rep.ItemsIssued),
				"items_done":            float64(rep.ItemsDone),
				"items_errors":          float64(rep.ItemsErrors),
				"offered_item_rate_rps": rep.OfferedItemRate,
				// Wire-cost ledger: response bytes read (and discarded)
				// per second next to items/s, so a serving change that
				// fattens payloads shows up even when item throughput
				// holds.
				"bytes_rps":  rep.BytesPerSec,
				"bytes_read": float64(rep.BytesRead),
				// Arrivals shed at the client's in-flight cap: nonzero
				// means the harness self-throttled and the offered rate
				// was NOT what -rate claims — exactly the silent
				// closed-loop degradation open-loop reports must expose.
				"dropped": float64(rep.Dropped),
				// Resilience ledger: uncertified fallback serves, the
				// injected/organic split of 5xx, and the retry machinery's
				// own counters. injected + organic partitions the 5xx seen.
				"degraded":        float64(rep.Degraded),
				"items_degraded":  float64(rep.ItemsDegraded),
				"injected_errors": float64(rep.InjectedErrors),
				"organic_5xx":     float64(rep.OrganicServerErrors),
				"retries":         float64(rep.Retries),
				"conn_errors":     float64(rep.ConnErrors),
				"breaker_opens":   float64(rep.BreakerOpens),
				// Traffic ledger: throughput divides by the issuing window
				// only; drain_s is the extra wait for in-flight requests
				// after the last arrival.
				"duration_s":       rep.DurationS,
				"drain_s":          rep.DrainS,
				"offered_rate_rps": rep.OfferedRate,
			},
		}
		if rep.Recorded > 0 || rep.RecordErrors > 0 {
			rec.Extra["recorded"] = float64(rep.Recorded)
			rec.Extra["record_errors"] = float64(rep.RecordErrors)
		}
		if rep.ReplaySpeed != 0 {
			rec.Extra["replay_speed"] = rep.ReplaySpeed
		}
		if rep.Op == "plan-batch" {
			rec.Extra["batch_size"] = float64(rep.BatchSize)
		}
		if rep.TracedResponses > 0 {
			rec.Extra["traced_responses"] = float64(rep.TracedResponses)
			for src, secs := range rep.ServerTotalSeconds {
				rec.Extra["server_total_s_"+src] = secs
			}
			for src, stages := range rep.ServerStageSeconds {
				for stage, secs := range stages {
					rec.Extra["server_stage_s_"+src+"_"+strings.ReplaceAll(stage, ".", "_")] = secs
				}
			}
		}
		if len(rep.Fleet) > 0 {
			up := 0
			for _, sn := range rep.Fleet {
				if sn != nil {
					up++
				}
			}
			rec.Extra["fleet_replicas"] = float64(len(rep.Fleet))
			rec.Extra["fleet_up"] = float64(up)
			rec.Extra["fleet_hit_rate"] = rep.FleetHitRate
			rec.Extra["fleet_store_hits"] = float64(rep.FleetStoreHits)
			rec.Extra["fleet_plans_computed"] = float64(rep.FleetPlansComputed)
		}
		if sm := rep.ServerMetrics; sm != nil {
			rec.Extra["cache_hit_rate"] = sm.CacheHitRate
			rec.Extra["coalesced"] = float64(sm.Coalesced)
			rec.Extra["rejected_429"] = float64(sm.Rejected)
			rec.Extra["server_degraded"] = float64(sm.Degraded)
			rec.Extra["server_deadline_abandoned"] = float64(sm.Abandoned)
			rec.Extra["server_retries_observed"] = float64(sm.RetriesSeen)
			if rep.Op == "plan-batch" {
				// Server-side per-batch p99 and mean batch size, to pair
				// with the client-side batch latencies.
				rec.Extra["server_batch_p99_s"] = sm.BatchLatency.P99
				rec.Extra["server_batch_size_mean"] = sm.BatchSizes.Mean
			}
		}
		report.Records = append(report.Records, rec)
		if err := report.Write(os.Stdout); err != nil {
			trace.Fatal("writing report", "err", err)
		}
	}

	if *smoke && (rep.Done == 0 || rep.Errors != 0 || rep.ItemsErrors != 0) {
		trace.Fatal("smoke failed",
			"done", rep.Done, "errors", rep.Errors, "item_errors", rep.ItemsErrors)
	}
}

// stageCells renders one source's per-request mean stage milliseconds,
// heaviest first, for the attribution table.
func stageCells(stages map[string]float64, n uint64) string {
	if len(stages) == 0 || n == 0 {
		return ""
	}
	type cell struct {
		name string
		ms   float64
	}
	cells := make([]cell, 0, len(stages))
	for name, secs := range stages {
		cells = append(cells, cell{name, secs * 1e3 / float64(n)})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].ms != cells[j].ms {
			return cells[i].ms > cells[j].ms
		}
		return cells[i].name < cells[j].name
	})
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, " %s=%.2fms", c.name, c.ms)
	}
	return b.String()
}

func hitRateCell(rep *load.Report) string {
	if rep.ServerMetrics == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", rep.ServerMetrics.CacheHitRate)
}

// perItemBytes is the mean response bytes paid per delivered item.
func perItemBytes(rep *load.Report) float64 {
	if rep.ItemsDone == 0 {
		return 0
	}
	return float64(rep.BytesRead) / float64(rep.ItemsDone)
}
