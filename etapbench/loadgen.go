package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/alert"
	"etap/internal/corpus"
)

// maxConns is the load generator's connection budget: never more load
// connections than the machine has cores to run them.
const maxConns = 2

// newClient returns the load generator's HTTP client, holding at most
// maxConns connections to the daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postJSON sends v and decodes the reply into out, requiring want.
func postJSON(c *http.Client, url string, v, out any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, resp, err := do(c, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("POST %s: status %d: %s", url, code, resp)
	}
	return json.Unmarshal(resp, out)
}

// sent is the outcome of one open-loop send. Times are offsets from
// the schedule's start.
type sent struct {
	due, start, end time.Duration
	status          int
	err             error
}

// openLoop sends request i at t0+due[i], spreading the schedule over
// conns sender goroutines (request i on sender i mod conns). A sender
// busy past a due time sends late; the lateness is recorded, and the
// request's latency still counts from its due time.
func openLoop(t0 time.Time, due []time.Duration, conns int, send func(i int) (int, error)) []sent {
	out := make([]sent, len(due))
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < len(due); i += conns {
				if wait := time.Until(t0.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				status, err := send(i)
				out[i] = sent{due: due[i], start: start, end: time.Since(t0), status: status, err: err}
			}
		}(j)
	}
	wg.Wait()
	return out
}

// schedule returns n due times at a constant rate per second.
func schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// streamDocs generates n fresh documents, with their ground truth, in
// the default world's mix from a generator seeded apart from the
// daemon's world, shuffled by seed, with URLs made unique to this
// stream. The same arguments give the same documents, so a workload
// holds only the request bodies while it measures and regenerates the
// documents for its checks afterwards.
func streamDocs(seed int64, n int, tag string) []corpus.Document {
	gen := corpus.NewGenerator(corpus.Config{Seed: 1_000_003 + 7919*seed})
	var docs []corpus.Document
	for len(docs) < n {
		docs = append(docs, gen.World()...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	docs = docs[:n]
	for i := range docs {
		docs[i].URL = fmt.Sprintf("http://%s/%s-%d/%06d", docs[i].Host, tag, seed, i)
	}
	return docs
}

// ingestBodies marshals every document's POST /ingest body.
func ingestBodies(docs []corpus.Document) ([][]byte, error) {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		body, err := json.Marshal(alert.Document{URL: d.URL, Title: d.Title, Text: d.Text()})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// received is one webhook POST as a sink saw it, kept small so the
// sinks add little to the heap the daemon's GC scans.
type received struct {
	fp  string // alert.Fingerprint of the event
	sub string // subscription ID
	url string // document the event came from
	at  time.Time
}

// sinks is a set of loopback webhook receivers. Each listener is its
// own host:port, so the daemon's HTTP client pools connections per
// listener the way it would per subscriber host.
type sinks struct {
	urls     []string
	srvs     []*http.Server
	done     []chan error
	newConns atomic.Int64

	mu  sync.Mutex
	got []received
	bad int
}

func startSinks(n int) (*sinks, error) {
	s := &sinks{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		srv := &http.Server{
			Handler: s,
			ConnState: func(_ net.Conn, st http.ConnState) {
				if st == http.StateNew {
					s.newConns.Add(1)
				}
			},
			ReadHeaderTimeout: 5 * time.Second,
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		s.urls = append(s.urls, "http://"+ln.Addr().String()+"/hook")
		s.srvs = append(s.srvs, srv)
		s.done = append(s.done, done)
	}
	return s, nil
}

func (s *sinks) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	at := time.Now()
	var a alert.Alert
	if err == nil {
		err = json.Unmarshal(body, &a)
	}
	rec := received{fp: alert.Fingerprint(a.Event), sub: a.Subscription, url: docURL(a.Event.SnippetID), at: at}
	s.mu.Lock()
	if err != nil {
		s.bad++
	} else {
		s.got = append(s.got, rec)
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// take returns every alert received so far and how many POSTs were
// unreadable.
func (s *sinks) take() ([]received, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]received(nil), s.got...), s.bad
}

func (s *sinks) close() {
	for i, srv := range s.srvs {
		_ = srv.Close() // receivers hold no state worth draining
		<-s.done[i]
	}
}
