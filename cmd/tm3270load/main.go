// Command tm3270load drives a running tm3270d with a closed-loop,
// shed-aware load: N tenant goroutines each create a session and issue
// runs back-to-back, honoring the server's Retry-After hints with
// jittered backoff instead of hammering through overload. It exits 0
// when the campaign finishes with zero 5xx responses and zero
// transport errors, making it the assertion half of `make serve-smoke`.
//
// Beyond the pass/fail verdict it reports client-observed latency:
// every Run round-trip lands in a per-status histogram and the closing
// report prints p50/p95/p99 per status. With -check-metrics it also
// audits the server's /metrics histograms — every histogram must be
// well-formed (bucket counts summing to its count) and every
// service.latency.stage.* histogram must have observed exactly the
// admitted-run count.
//
// Every executed run's reply must also carry the translation-cache
// counters of its block-cache run, with at least one block translated;
// a missing block fails the campaign. Under -check-metrics the
// server-side service.blockcache.translated total must cover every
// admitted run.
//
// Usage:
//
//	tm3270load [-base http://127.0.0.1:8270] [-sessions 16] [-runs 8]
//	           [-workload memcpy] [-target d]
//	           [-inject spec] [-deadline 0]
//	           [-timeout 2m] [-check-metrics] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tm3270/internal/service"
	"tm3270/internal/telemetry"
)

// latencies histograms client-observed Run round-trip times per reply
// status. Histograms are internally atomic; the map is fixed at
// construction so tenant goroutines share it without locking.
type latencies struct {
	byStatus map[string]*telemetry.Histogram
}

func newLatencies() *latencies {
	l := &latencies{byStatus: make(map[string]*telemetry.Histogram)}
	for _, st := range []string{service.StatusOK, service.StatusTrap, service.StatusTimeout,
		service.StatusCanceled, "shed", "other"} {
		l.byStatus[st] = telemetry.NewHistogram()
	}
	return l
}

func (l *latencies) observe(status string, d time.Duration) {
	h, ok := l.byStatus[status]
	if !ok {
		h = l.byStatus["other"]
	}
	h.Observe(d)
}

func (l *latencies) report() {
	names := make([]string, 0, len(l.byStatus))
	for name := range l.byStatus {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("  client latency p50/p95/p99 ms per status:")
	for _, name := range names {
		h := l.byStatus[name].Snapshot()
		if h.Count == 0 {
			continue
		}
		fmt.Printf("    %-10s %8.2f %8.2f %8.2f  (n=%d)\n",
			name, float64(h.P50US)/1000, float64(h.P95US)/1000, float64(h.P99US)/1000, h.Count)
	}
}

func main() {
	base := flag.String("base", "http://127.0.0.1:8270", "server base URL")
	sessions := flag.Int("sessions", 16, "concurrent tenant sessions")
	runs := flag.Int("runs", 8, "runs per session")
	workload := flag.String("workload", "memcpy", "workload every session runs")
	target := flag.String("target", "d", "processor target (a-d, tm3260, tm3270)")
	inject := flag.String("inject", "", "fault spec for every run (kind:rate:delay)")
	deadlineMS := flag.Int64("deadline", 0, "per-run deadline override, ms (0 = server default)")
	timeout := flag.Duration("timeout", 2*time.Minute, "whole-campaign budget")
	checkMetrics := flag.Bool("check-metrics", false,
		"audit server /metrics histograms after the campaign (well-formed buckets, stage counts == admitted)")
	verbose := flag.Bool("v", false, "log every reply")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	ready := &service.Client{Base: *base}
	if err := ready.WaitReady(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "tm3270load: server never became ready: %v\n", err)
		os.Exit(1)
	}

	type tally struct{ ok, trap, timeout, canceled, other, failed int }
	var mu sync.Mutex
	var tot tally
	var agg service.ClientStats
	lat := newLatencies()
	start := time.Now()

	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &service.Client{Base: *base, MaxAttempts: 64}
			var local tally
			defer func() {
				mu.Lock()
				tot.ok += local.ok
				tot.trap += local.trap
				tot.timeout += local.timeout
				tot.canceled += local.canceled
				tot.other += local.other
				tot.failed += local.failed
				agg.Requests.Add(c.Stats.Requests.Load())
				agg.Retries.Add(c.Stats.Retries.Load())
				agg.Shed.Add(c.Stats.Shed.Load())
				agg.FiveXX.Add(c.Stats.FiveXX.Load())
				agg.Errors.Add(c.Stats.Errors.Load())
				mu.Unlock()
			}()

			info, err := c.CreateSession(ctx, service.CreateSessionRequest{
				Workload: *workload, Target: *target,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "tm3270load: tenant %d: create: %v\n", i, err)
				local.failed++
				return
			}
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < *runs; r++ {
				runStart := time.Now()
				rep, err := c.Run(ctx, info.ID, service.RunRequest{
					Inject:     *inject,
					Seed:       int64(i**runs + r),
					DeadlineMS: *deadlineMS,
				})
				rtt := time.Since(runStart)
				if err != nil {
					if ae, ok := err.(*service.APIError); ok && ae.Code == http.StatusTooManyRequests {
						// Budget exhausted on sustained overload: back
						// off longer and move on rather than failing.
						lat.observe("shed", rtt)
						time.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)
						local.other++
						continue
					}
					fmt.Fprintf(os.Stderr, "tm3270load: tenant %d run %d: %v\n", i, r, err)
					local.failed++
					continue
				}
				lat.observe(rep.Status, rtt)
				if *verbose {
					fmt.Printf("tenant %d run %d: %s request=%s cycles=%d elapsed=%.1fms\n",
						i, r, rep.Status, rep.RequestID, rep.Cycles, rep.ElapsedMS)
				}
				// Every executed run (completed or trapped) must carry the
				// cache counters of its block-cache run — the client half
				// of the execution-telemetry contract.
				if rep.Status == service.StatusOK || rep.Trap != nil {
					switch {
					case rep.BlockCache == nil:
						fmt.Fprintf(os.Stderr, "tm3270load: tenant %d run %d: reply without blockcache counters\n", i, r)
						local.failed++
					case rep.BlockCache.Translated <= 0:
						fmt.Fprintf(os.Stderr, "tm3270load: tenant %d run %d: run translated %d blocks\n",
							i, r, rep.BlockCache.Translated)
						local.failed++
					}
				}
				switch rep.Status {
				case service.StatusOK:
					local.ok++
				case service.StatusTrap:
					local.trap++
				case service.StatusTimeout:
					local.timeout++
				case service.StatusCanceled:
					local.canceled++
				default:
					local.other++
				}
			}
			c.DeleteSession(ctx, info.ID)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := tot.ok + tot.trap + tot.timeout + tot.canceled + tot.other
	fmt.Printf("tm3270load: %d sessions x %d runs in %s\n", *sessions, *runs, elapsed.Round(time.Millisecond))
	fmt.Printf("  replies:   ok=%d trap=%d timeout=%d canceled=%d other=%d (total %d)\n",
		tot.ok, tot.trap, tot.timeout, tot.canceled, tot.other, total)
	fmt.Printf("  transport: requests=%d retries=%d shed429=%d fivexx=%d errors=%d failed=%d\n",
		agg.Requests.Load(), agg.Retries.Load(), agg.Shed.Load(), agg.FiveXX.Load(),
		agg.Errors.Load(), tot.failed)
	if elapsed > 0 && total > 0 {
		fmt.Printf("  throughput: %.1f runs/s\n", float64(total)/elapsed.Seconds())
	}
	lat.report()

	fail := agg.FiveXX.Load() != 0 || tot.failed != 0
	if *checkMetrics {
		if err := auditMetrics(ctx, ready); err != nil {
			fmt.Fprintf(os.Stderr, "tm3270load: metrics audit: %v\n", err)
			fail = true
		} else {
			fmt.Println("  metrics audit: histograms well-formed, stage counts == admitted, blockcache translated >= admitted")
		}
	}
	if fail {
		fmt.Fprintln(os.Stderr, "tm3270load: FAIL — 5xx responses, failed requests, or metrics audit")
		os.Exit(1)
	}
	fmt.Println("tm3270load: PASS — zero 5xx, zero failed requests")
}

// auditMetrics fetches /metrics and asserts the histogram invariants:
// every histogram's bucket counts sum to its count, every
// service.latency.stage.* histogram observed exactly once per admitted
// run, and every admitted run translated at least one block. The
// server observes the encode and run stages after the reply bytes hit
// the wire, so a just-finished campaign can race the final
// observations; retry briefly before declaring a mismatch.
func auditMetrics(ctx context.Context, c *service.Client) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		err = checkMetricsBody(m)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func checkMetricsBody(m *service.Metrics) error {
	if len(m.Histograms) == 0 {
		return fmt.Errorf("no histograms in /metrics")
	}
	admitted := m.Counters["service.runs.admitted"]
	stages := 0
	for name, h := range m.Histograms {
		if len(h.Counts) != len(h.BoundsUS)+1 {
			return fmt.Errorf("%s: %d buckets for %d bounds (want bounds+1)",
				name, len(h.Counts), len(h.BoundsUS))
		}
		var sum int64
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("%s: negative bucket count %d", name, c)
			}
			sum += c
		}
		if sum != h.Count {
			return fmt.Errorf("%s: bucket counts sum to %d, count says %d", name, sum, h.Count)
		}
		if strings.HasPrefix(name, "service.latency.stage.") {
			stages++
			if h.Count != admitted {
				return fmt.Errorf("%s: observed %d, admitted runs %d", name, h.Count, admitted)
			}
		}
	}
	if stages == 0 {
		return fmt.Errorf("no service.latency.stage.* histograms in /metrics")
	}
	// Every run starts with a cold per-run block cache, so it
	// translates at least one block; this campaign is the server's only
	// traffic, so the translation total must cover every admitted run.
	if translated := m.Counters["service.blockcache.translated"]; translated < admitted {
		return fmt.Errorf("service.blockcache.translated %d < %d admitted runs", translated, admitted)
	}
	return nil
}
