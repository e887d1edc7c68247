package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"tm3270/internal/service"
)

// serveWorkloads are the sessions every client owns: two memory and
// filter kernels, an MPEG-2 decode, a CABAC field, a prefetching motion
// search and the MP3 synthesis filter, all at Small params.
var serveWorkloads = []string{"memcpy", "filter", "mpeg2_a", "cabac_opt_i", "me_frac8_pf", "mp3_synth"}

// serveStages are the service's per-run stage histograms.
var serveStages = []string{"admit", "queue", "compile", "execute", "encode"}

const serveClients = 2

type serveSession struct {
	id     string
	cycles int64 // the warm-up run's cycles; every later run must match
}

// serveClient is one closed-loop client: one keep-alive connection, no
// retries, so a shed request counts as a failure.
type serveClient struct {
	http     *http.Client
	rng      *rand.Rand
	sessions []serveSession
}

// serveBench drives an in-process tm3270d over HTTP: admission, queue,
// cached compile, a short execute and the JSON reply, per request.
type serveBench struct {
	g         *gates
	srv       *service.Server
	ts        *httptest.Server
	clients   []*serveClient
	perClient int   // requests per client per pass
	submitted int64 // runs sent to the server, warm-ups included

	mu  sync.Mutex
	lat []time.Duration

	// Traced accumulators.
	clientSum  time.Duration
	stageSumUS map[string]int64
	runSumUS   int64
	hits, miss int64
	sim        map[string]int64 // one traced pass's summed reply counters
	passSim    map[string]int64
}

func setupServe(o *options, g *gates) (bench, error) {
	b := &serveBench{g: g, perClient: 500, stageSumUS: map[string]int64{}}
	if o.tiny {
		b.perClient = 10
	}
	// The span recorder keeps one tree per request up to its cap. A cap of
	// one pass's requests is reached during the first pass, so the
	// server's memory does not grow with the number of passes a run fits.
	b.srv = service.New(service.Config{Workers: serveClients, SpanCap: serveClients * b.perClient})
	b.ts = httptest.NewServer(b.srv.Handler())
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng:  rand.New(rand.NewSource(o.seed*serveClients + int64(c))),
		}
		b.clients = append(b.clients, cl)
		for _, w := range serveWorkloads {
			var info service.SessionInfo
			if err := b.post(cl, "/sessions", service.CreateSessionRequest{Workload: w}, http.StatusCreated, &info); err != nil {
				b.release()
				return nil, err
			}
			var rep service.RunReply
			b.submitted++
			if err := b.post(cl, "/sessions/"+info.ID+"/runs", service.RunRequest{}, http.StatusOK, &rep); err != nil {
				b.release()
				return nil, err
			}
			if rep.Status != service.StatusOK {
				b.release()
				return nil, fmt.Errorf("warm-up run of %s: status %q: %s", w, rep.Status, rep.Error)
			}
			cl.sessions = append(cl.sessions, serveSession{id: info.ID, cycles: rep.Cycles})
		}
	}
	return b, nil
}

// post sends one JSON request and decodes the reply, which must carry
// the wanted status code.
func (b *serveBench) post(cl *serveClient, path string, body any, want int, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	raw, code, err := b.roundTrip(cl, path, buf)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("POST %s: status %d: %s", path, code, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

func (b *serveBench) roundTrip(cl *serveClient, path string, body []byte) ([]byte, int, error) {
	resp, err := cl.http.Post(b.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

func (b *serveBench) opsPerPass() int { return serveClients * b.perClient }

func (b *serveBench) parts() int { return 1 }

func (b *serveBench) pass(ctx context.Context, tr *tracer, _ int) []time.Duration {
	var before *service.Metrics
	if tr != nil {
		before = b.metrics()
		b.passSim = map[string]int64{}
	}
	b.lat = make([]time.Duration, 0, b.opsPerPass())
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			for i := 0; i < b.perClient && ctx.Err() == nil; i++ {
				b.request(tr, cl)
			}
		}(cl)
	}
	wg.Wait()
	b.submitted += int64(len(b.lat))
	if tr != nil {
		if after := b.metrics(); before != nil && after != nil {
			b.addStages(before, after)
		}
		b.sim = b.passSim
	}
	return b.lat
}

var (
	plainRun     = []byte(`{}`)
	telemetryRun = []byte(`{"telemetry":true}`)
)

// request is one op: a run of one of the client's sessions, picked by
// the client's seeded generator, one in ten asking for the full counter
// snapshot in the reply.
func (b *serveBench) request(tr *tracer, cl *serveClient) {
	sess := cl.sessions[cl.rng.Intn(len(cl.sessions))]
	body := plainRun
	if cl.rng.Intn(10) == 0 {
		body = telemetryRun
	}
	o := tr.begin()
	var raw []byte
	var code int
	var err error
	o.do("service.request", func() { raw, code, err = b.roundTrip(cl, "/sessions/"+sess.id+"/runs", body) })
	var rep service.RunReply
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(raw, &rep)
	}
	d := o.end()

	ok := b.g.check(err == nil && code == http.StatusOK, "serve %s: status %d: %v %s", sess.id, code, err, raw)
	ok = ok && b.g.check(rep.Status == service.StatusOK && rep.Cycles == sess.cycles,
		"serve %s: status %q, %d cycles, want ok and %d", sess.id, rep.Status, rep.Cycles, sess.cycles)
	b.g.op(ok)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.lat = append(b.lat, d)
	if tr != nil {
		b.clientSum += d
		b.passSim["sim.cycles"] += rep.Cycles
		b.passSim["sim.instrs"] += rep.Instrs
		if rep.BlockCache != nil {
			b.passSim["sim.blockcache.translated"] += rep.BlockCache.Translated
			b.passSim["sim.blockcache.hits"] += rep.BlockCache.Hits
		}
	}
}

// metrics reads GET /metrics over the first client's connection.
func (b *serveBench) metrics() *service.Metrics {
	resp, err := b.clients[0].http.Get(b.ts.URL + "/metrics")
	if !b.g.check(err == nil, "GET /metrics: %v", err) {
		return nil
	}
	defer resp.Body.Close()
	var m service.Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	if !b.g.check(err == nil && resp.StatusCode == http.StatusOK, "GET /metrics: status %d: %v", resp.StatusCode, err) {
		return nil
	}
	return &m
}

func (b *serveBench) addStages(before, after *service.Metrics) {
	for _, s := range serveStages {
		name := "service.latency.stage." + s
		b.stageSumUS[s] += after.Histograms[name].SumUS - before.Histograms[name].SumUS
	}
	name := "service.latency.stage.run"
	b.runSumUS += after.Histograms[name].SumUS - before.Histograms[name].SumUS
	b.hits += after.Counters.Get("service.cache.hit") - before.Counters.Get("service.cache.hit")
	b.miss += after.Counters.Get("service.cache.miss") - before.Counters.Get("service.cache.miss")
}

func (b *serveBench) info(map[string]float64) {}

func (b *serveBench) layerMetrics(m map[string]float64) {
	if client := b.clientSum.Microseconds(); client > 0 {
		for _, s := range serveStages {
			m["service.stage."+s+"_frac"] = float64(b.stageSumUS[s]) / float64(client)
		}
		m["service.http_frac"] = float64(client-b.runSumUS) / float64(client)
	}
	if b.hits+b.miss > 0 {
		m["runner.cache.hit_ratio"] = float64(b.hits) / float64(b.hits+b.miss)
	}
	for k, v := range b.sim {
		m[k] = float64(v)
	}
	tr, hits := b.sim["sim.blockcache.translated"], b.sim["sim.blockcache.hits"]
	if tr+hits > 0 {
		m["blockcache.hit_ratio"] = float64(hits) / float64(tr+hits)
	}
}

// finish audits the server's own accounting: every run sent was
// admitted and completed, and nothing was shed.
func (b *serveBench) finish(context.Context) {
	m := b.metrics()
	if m == nil {
		b.g.op(false)
		return
	}
	c := m.Counters
	shed := c.Sum("service.shed.queue", "service.shed.quota", "service.shed.draining", "service.shed.sessions")
	b.g.op(b.g.check(c.Get("service.runs.admitted") == b.submitted && c.Get("service.runs.completed") == b.submitted && shed == 0,
		"serve: admitted %d, completed %d, shed %d; want %d, %d, 0",
		c.Get("service.runs.admitted"), c.Get("service.runs.completed"), shed, b.submitted, b.submitted))
}

func (b *serveBench) release() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.srv.Drain(ctx); err != nil {
		b.g.fail("serve: drain: %v", err)
	}
	for _, cl := range b.clients {
		cl.http.CloseIdleConnections()
	}
	b.ts.Close()
	b.srv.Close()
}
