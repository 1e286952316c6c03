package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"anubis"
	"anubis/internal/serve"
)

// serveSpec sizes the serving load.
type serveSpec struct {
	tenants int     // tenants of kvTenantBytes, alternating AGIT-Plus and ASIT
	keys    int     // prefilled blocks per tenant
	warmup  float64 // seconds of unmeasured load before the first slice
	slice   float64 // seconds of measured load per round, at least
	direct  float64 // seconds per direct boundary in traced runs
}

const (
	// httpSpanEvery samples the load's per-operation spans: a run sends
	// hundreds of thousands of requests, and one span in 32 keeps the
	// spans file to a few MB.
	httpSpanEvery = 32
	kvTenantBytes = 8 << 20
	kvClients     = 2    // closed-loop client connections (nproc on the reference host)
	kvWriteFrac   = 0.2  // kvstore-shaped mix: 80% GET, 20% PUT
	kvZipfS       = 1.1  // key-popularity skew
	kvTagBase     = 0x10 // payload tag of tenant i is kvTagBase+i
)

// kvServer is anubis-serve on a loopback listener plus the clients'
// view of every tenant's contents. Client c only touches keys with
// k%kvClients == c, so each version slot has one writer.
type kvServer struct {
	b    *bench
	spec serveSpec
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when the HTTP server's goroutine exits
	base string
	ids  []string
	ver  [][]uint32

	clients []*kvClient
	scrape  *http.Client

	lat        []opLat   // measured operations of every slice
	sliceRate  []float64 // completed operations per second, per slice
	attempted  int64     // HTTP operations sent under load, warm-up included
	scrapeMS   []float64
	warm       bool      // the unmeasured warm-up has run
	lastScrape time.Time // scrapes come at most once a second
	mem        memDelta  // traced runs only
}

// kvClient is one closed-loop client with its own keep-alive
// connection and key stream, kept across slices.
type kvClient struct {
	tr     *http.Transport
	cl     *http.Client
	stream *kvStream
	req    int64
}

func setupServe(b *bench, spec serveSpec) (*kvServer, error) {
	st := &kvServer{b: b, spec: spec, srv: serve.New(serve.Config{})}
	for i := 0; i < spec.tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		tc := serve.TenantConfig{Scheme: tenantScheme(i), MemoryBytes: kvTenantBytes}
		if err := st.srv.CreateTenant(id, tc); err != nil {
			return nil, err
		}
		st.ids = append(st.ids, id)
		st.ver = append(st.ver, make([]uint32, spec.keys))
		if err := prefill(b, st.srv, id, kvTagBase+uint64(i), st.ver[i]); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", st.srv.Telemetry())
	mux.Handle("/", st.srv.Handler())
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: mux}
	st.done = make(chan struct{})
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for c := 0; c < kvClients; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		st.clients = append(st.clients, &kvClient{
			tr: tr, cl: &http.Client{Transport: tr},
			stream: newKVStream(b.opt.seed, "kv-http", c, spec.tenants, spec.keys),
			req:    int64(c) << 40,
		})
	}
	st.scrape = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return st, nil
}

// close stops the clients' connections, the HTTP server and the tenant
// workers.
func (st *kvServer) close() {
	for _, c := range st.clients {
		c.tr.CloseIdleConnections()
	}
	st.scrape.CloseIdleConnections()
	_ = st.hs.Close()
	<-st.done
	_ = st.srv.Shutdown("")
}

// kvOp is one client operation drawn from the seeded key stream.
type kvOp struct {
	tenant int
	key    int
	write  bool
}

// kvStream draws client c's operations: a uniform tenant, a Zipf key
// among the client's own keys, and the read/write mix.
type kvStream struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	c       int
	tenants int
}

func newKVStream(seed int64, purpose string, c, tenants, keys int) *kvStream {
	r := rngFor(seed, purpose, c)
	return &kvStream{r: r, zipf: rand.NewZipf(r, kvZipfS, 1, uint64(keys/kvClients-1)), c: c, tenants: tenants}
}

func (s *kvStream) next() kvOp {
	return kvOp{
		tenant: s.r.Intn(s.tenants),
		key:    int(s.zipf.Uint64())*kvClients + s.c,
		write:  s.r.Float64() < kvWriteFrac,
	}
}

// opLat is one measured operation: its latency, or -1 when it failed.
type opLat struct {
	ns    int64
	write bool
}

// clientOut is one client's tally over one slice.
type clientOut struct {
	lat       []opLat
	attempted int64
	failed    int64
	firstErr  error
}

func (o *clientOut) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// run drives one client closed-loop until end, checking every read
// against the last acknowledged version.
func (kc *kvClient) run(b *bench, st *kvServer, end time.Time) *clientOut {
	out := &clientOut{}
	var data [anubis.BlockSize]byte
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return out
		}
		op := kc.stream.next()
		url := fmt.Sprintf("%s/t/%s/block/%d", st.base, st.ids[op.tenant], op.key)
		tag := kvTagBase + uint64(op.tenant)
		ver := st.ver[op.tenant][op.key]
		var err error
		if op.write {
			payload(&data, b.opt.seed, tag, uint64(op.key), ver+1)
			err = retrySheds(b, "http", func() error { return httpDo(kc.cl, http.MethodPut, url, data[:], nil) })
			if err == nil {
				st.ver[op.tenant][op.key] = ver + 1
			}
		} else {
			var got []byte
			err = retrySheds(b, "http", func() error { return httpDo(kc.cl, http.MethodGet, url, nil, &got) })
			err = checkRead(got, err, b.opt.seed, tag, uint64(op.key), ver)
		}
		t1 := time.Now()
		kc.req++
		name := "serve.http_read"
		if op.write {
			name = "serve.http_write"
		}
		if kc.req%httpSpanEvery == 0 {
			b.tr.record(name, 0, kc.req, t0, t1)
		}
		out.attempted++
		ns := t1.Sub(t0).Nanoseconds()
		if err != nil {
			out.fail(fmt.Errorf("%s %s: %w", name, url, err))
			ns = -1
		}
		out.lat = append(out.lat, opLat{ns: ns, write: op.write})
	}
}

// httpDo sends one request and expects 200. A 429 comes back as a
// *serve.ShedError carrying the reason and the server's retry hint.
// When body is non-nil the response body is stored there.
func httpDo(cl *http.Client, method, url string, payload []byte, body *[]byte) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		var shed struct {
			Reason       string `json:"reason"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		_ = json.Unmarshal(raw, &shed)
		return &serve.ShedError{Reason: shed.Reason, RetryAfter: time.Duration(shed.RetryAfterMS) * time.Millisecond}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if body != nil {
		*body = raw
	}
	return nil
}

// maxShedRetries bounds how often one operation is retried after its
// requests were shed; an operation still shed after that fails.
const maxShedRetries = 100

// retrySheds calls fn until the server stops shedding it. It retries at
// once: a WPQ shed has already advanced the tenant's modeled clock past
// the drain, so the retry is admitted, and the operation's latency
// includes the refused round trip. Every shed is counted as
// "<source>/<reason>"; only an operation still shed after
// maxShedRetries, or one that fails otherwise, counts as failed.
func retrySheds(b *bench, source string, fn func() error) error {
	for tries := 0; ; tries++ {
		err := fn()
		var shed *serve.ShedError
		if !errors.As(err, &shed) || tries == maxShedRetries {
			return err
		}
		b.countShed(source + "/" + shed.Reason)
	}
}

// load runs both clients until end, plus one /metrics scrape alongside
// them, as a Prometheus scraper would. It returns the clients' tallies.
func (st *kvServer) load(end time.Time, scrape bool) []*clientOut {
	scrape = scrape && time.Since(st.lastScrape) >= time.Second
	b := st.b
	outs := make([]*clientOut, len(st.clients))
	var wg sync.WaitGroup
	for i, kc := range st.clients {
		wg.Add(1)
		go func(i int, kc *kvClient) {
			defer wg.Done()
			outs[i] = kc.run(b, st, end)
		}(i, kc)
	}
	if scrape {
		t0 := time.Now()
		st.lastScrape = t0
		var body []byte
		err := httpDo(st.scrape, http.MethodGet, st.base+"/metrics", nil, &body)
		t1 := time.Now()
		b.tr.record("obs.scrape", 0, 0, t0, t1)
		if err == nil && !bytes.Contains(body, []byte("anubis_serve_requests_total")) {
			err = errors.New("/metrics lacks anubis_serve_requests_total")
		}
		b.op(err)
		if err == nil {
			st.scrapeMS = append(st.scrapeMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
	}
	wg.Wait()
	for _, o := range outs {
		b.addCounts(o.attempted, o.failed, o.firstErr)
		st.attempted += o.attempted
	}
	return outs
}

// round runs one measured slice of load lasting d (after the warm-up,
// on the first round).
func (st *kvServer) round(d time.Duration) {
	if !st.warm {
		st.warm = true
		st.load(time.Now().Add(seconds(st.spec.warmup)), false)
	}
	if st.b.tr != nil {
		st.mem.begin()
	}
	t0 := time.Now()
	outs := st.load(t0.Add(d), true)
	d = time.Since(t0)
	if st.b.tr != nil {
		st.mem.end()
	}
	var ok int
	for _, o := range outs {
		st.lat = append(st.lat, o.lat...)
		for _, l := range o.lat {
			if l.ns >= 0 {
				ok++
			}
		}
	}
	st.sliceRate = append(st.sliceRate, float64(ok)/d.Seconds())
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// latencies returns the measured latencies in microseconds; failed ops
// count as +Inf, missing any latency limit.
func latencies(ls []opLat, keep func(opLat) bool) []float64 {
	var us []float64
	for _, l := range ls {
		if keep != nil && !keep(l) {
			continue
		}
		if l.ns < 0 {
			us = append(us, math.Inf(1))
		} else {
			us = append(us, float64(l.ns)/1e3)
		}
	}
	return us
}

// finish reports ops_per_s (the median slice's rate) and p50_us over
// every measured operation, then checks every tenant with Audit.
func (st *kvServer) finish() error {
	b := st.b
	if len(st.lat) == 0 {
		return errors.New("serve: no operation measured")
	}
	us := latencies(st.lat, nil)
	n := len(st.lat)
	b.setE2E("ops_per_s", "1/s", median(st.sliceRate), len(st.sliceRate))
	b.setE2E("p50_us", "us", quantile(us, 0.50), n)

	if b.opt.fault != "" {
		st.injectFault()
	}
	for _, id := range st.ids {
		a, err := st.srv.Audit(id)
		if err == nil && !a.OK() {
			err = fmt.Errorf("tenant %s audit: %v", id, a.Violations)
		}
		b.op(err)
	}
	if b.tr == nil {
		return nil
	}
	// p99 swings by a third between runs on a shared 2-core host, too
	// far for an end-to-end bound; it is reported per layer instead.
	b.setLayer("serve.p99_us", "us", quantile(us, 0.99))
	reads := latencies(st.lat, func(l opLat) bool { return !l.write })
	writes := latencies(st.lat, func(l opLat) bool { return l.write })
	b.setLayer("serve.http_read_p50_us", "us", quantile(reads, 0.50))
	b.setLayer("serve.http_read_p99_us", "us", quantile(reads, 0.99))
	b.setLayer("serve.http_write_p50_us", "us", quantile(writes, 0.50))
	b.setLayer("serve.http_write_p99_us", "us", quantile(writes, 0.99))
	b.setLayer("obs.scrape_ms", "ms", median(st.scrapeMS))
	b.setLayer("runtime.alloc_bytes_per_op", "B", float64(st.mem.alloc)/float64(n))
	b.setLayer("runtime.gc_pause_ms", "ms", float64(st.mem.pauseNS)/1e6)
	// Refused HTTP requests over all HTTP requests sent under load.
	sheds := b.shedCounts()
	var shed int64
	for k, v := range sheds {
		if strings.HasPrefix(k, "http/") {
			shed += v
		}
	}
	sent := float64(st.attempted + shed)
	b.setLayer("serve.shed_pct", "%", float64(shed)*100/sent)
	for _, reason := range []string{"queue", "wpq", "inflight"} {
		b.setLayer("serve.shed_"+reason+"_pct", "%", float64(sheds["http/"+reason])*100/sent)
	}
	return st.directBoundaries(quantile(us, 0.5))
}

// injectFault corrupts tenant t0 below the serving layer so the final
// audit must report it.
func (st *kvServer) injectFault() {
	_ = st.srv.Do(st.ids[0], "bench_fault", func(sys *anubis.SafeSystem) error {
		sys.Flush()
		if st.b.opt.fault == "counter" {
			sys.TamperCounter(0, 9, 0x5a)
		} else {
			sys.TamperData(0, 5, 0x81)
		}
		return nil
	})
}

// blockIO is the block interface SafeSystem and System share.
type blockIO interface {
	WriteBlock(uint64, []byte) error
	ReadBlockInto(uint64, *[anubis.BlockSize]byte) error
}

// directBoundaries replays the same mix one layer further in at a time
// — Server calls, a SafeSystem, a bare System — and reports each
// boundary's latency plus the self time between adjacent boundaries.
// Each self time compares two boundaries under the same load, so it
// holds no contention the other boundary lacks: HTTP against Server
// with the load's clients and tenants, and Server, SafeSystem and
// System with one client on one tenant (a System is not safe for
// concurrent use).
func (st *kvServer) directBoundaries(httpP50 float64) error {
	b := st.b
	d := seconds(st.spec.direct)
	keys := st.spec.keys

	serverOp := func(s *kvStream) func() (bool, error) {
		var data [anubis.BlockSize]byte
		return func() (bool, error) {
			op := s.next()
			id, tag := st.ids[op.tenant], kvTagBase+uint64(op.tenant)
			ver := st.ver[op.tenant][op.key]
			if op.write {
				payload(&data, b.opt.seed, tag, uint64(op.key), ver+1)
				err := retrySheds(b, "server", func() error { return st.srv.WriteBlock(id, uint64(op.key), data[:]) })
				if err == nil {
					st.ver[op.tenant][op.key] = ver + 1
				}
				return true, err
			}
			var got []byte
			err := retrySheds(b, "server", func() (err error) {
				got, err = st.srv.ReadBlock(id, uint64(op.key))
				return err
			})
			return false, checkRead(got, err, b.opt.seed, tag, uint64(op.key), ver)
		}
	}
	server, err := closedLoop(b, kvClients, d, len(st.ids), keys, "serve.server", serverOp)
	if err != nil {
		return err
	}
	server1, err := closedLoop(b, 1, d, 1, keys, "serve.server1", serverOp)
	if err != nil {
		return err
	}
	// One system per library boundary, equivalent to tenant 0 (an
	// AGIT-Plus tenant) and filled like it.
	newTenant := func() (*anubis.System, []uint32, error) {
		sys, err := anubis.New(anubis.Config{Scheme: anubis.AGITPlus, MemoryBytes: kvTenantBytes})
		if err != nil {
			return nil, nil, err
		}
		ver := make([]uint32, keys)
		var data [anubis.BlockSize]byte
		for k := range ver {
			ver[k] = 1
			payload(&data, b.opt.seed, kvTagBase, uint64(k), 1)
			if err := sys.WriteBlock(uint64(k), data[:]); err != nil {
				return nil, nil, err
			}
		}
		return sys, ver, nil
	}
	libOp := func(rw blockIO, ver []uint32) func(s *kvStream) func() (bool, error) {
		return func(s *kvStream) func() (bool, error) {
			var data, got [anubis.BlockSize]byte
			return func() (bool, error) {
				op := s.next()
				v := ver[op.key]
				if op.write {
					payload(&data, b.opt.seed, kvTagBase, uint64(op.key), v+1)
					err := rw.WriteBlock(uint64(op.key), data[:])
					if err == nil {
						ver[op.key] = v + 1
					}
					return true, err
				}
				err := rw.ReadBlockInto(uint64(op.key), &got)
				return false, checkRead(got[:], err, b.opt.seed, kvTagBase, uint64(op.key), v)
			}
		}
	}
	sys, ver, err := newTenant()
	if err != nil {
		return err
	}
	safe, err := closedLoop(b, 1, d, 1, keys, "anubis.safe", libOp(anubis.Wrap(sys), ver))
	if err != nil {
		return err
	}
	if sys, ver, err = newTenant(); err != nil {
		return err
	}
	bare, err := closedLoop(b, 1, d, 1, keys, "anubis.system", libOp(sys, ver))
	if err != nil {
		return err
	}
	b.setLayer("serve.server_read_p50_us", "us", server.readP50)
	b.setLayer("serve.server_read_p99_us", "us", server.readP99)
	b.setLayer("serve.server_write_p50_us", "us", server.writeP50)
	b.setLayer("serve.server_write_p99_us", "us", server.writeP99)
	b.setLayer("anubis.safe_read_p50_us", "us", safe.readP50)
	b.setLayer("anubis.safe_write_p50_us", "us", safe.writeP50)
	b.setLayer("anubis.system_read_p50_us", "us", bare.readP50)
	b.setLayer("anubis.system_write_p50_us", "us", bare.writeP50)
	b.setLayer("serve.http_self_us", "us", httpP50-server.p50)
	b.setLayer("serve.admission_self_us", "us", server1.p50-safe.p50)
	b.setLayer("anubis.lock_self_us", "us", safe.p50-bare.p50)
	return nil
}

// boundary is one layer boundary's latency summary in microseconds.
type boundary struct {
	p50, readP50, readP99, writeP50, writeP99 float64
}

// closedLoop runs clients goroutines, each calling the op built for it
// back to back for d, and summarizes the latencies. Every failed op is
// counted against the run. The ops take microseconds, so they get no
// spans; their latencies are the measurement.
func closedLoop(b *bench, clients int, d time.Duration, tenants, keys int, name string,
	build func(s *kvStream) func() (bool, error)) (boundary, error) {
	runtime.GC()
	outs := make([]*clientOut, clients)
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &clientOut{}
			op := build(newKVStream(b.opt.seed, "kv-"+name, c, tenants, keys))
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				write, err := op()
				t1 := time.Now()
				o.attempted++
				ns := t1.Sub(t0).Nanoseconds()
				if err != nil {
					o.fail(fmt.Errorf("%s: %w", name, err))
					ns = -1
				}
				o.lat = append(o.lat, opLat{ns: ns, write: write})
			}
			outs[c] = o
		}(c)
	}
	wg.Wait()
	var all []opLat
	for _, o := range outs {
		b.addCounts(o.attempted, o.failed, o.firstErr)
		all = append(all, o.lat...)
	}
	if len(all) == 0 {
		return boundary{}, fmt.Errorf("%s: no operation measured", name)
	}
	reads := latencies(all, func(l opLat) bool { return !l.write })
	writes := latencies(all, func(l opLat) bool { return l.write })
	return boundary{
		p50:      quantile(latencies(all, nil), 0.5),
		readP50:  quantile(reads, 0.5),
		readP99:  quantile(reads, 0.99),
		writeP50: quantile(writes, 0.5),
		writeP99: quantile(writes, 0.99),
	}, nil
}
