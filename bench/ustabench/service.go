package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/obs"
)

// service is the fleet service in the ROADMAP shape, in-process over
// loopback TCP: a JobServer journaling to a durable state dir, dispatching
// through a net.Runner to two net.Server{Capacity: 1} workers, behind the
// HTTP API. It is wired exactly as cmd/ustafleetd -state-dir -hosts and
// cmd/ustaworker -listen wire it.
type service struct {
	dir    string
	js     *fleetnet.JobServer
	cancel context.CancelFunc
	wg     sync.WaitGroup
	srv    *http.Server
	c      *client
	// wire counts the workers' socket traffic (traced pass only).
	wire *wireCounters
}

// serviceWorkers is the number of worker daemons; each serves one shard at
// a time, and JobServer.Workers=1 keeps one simulation per shard, so the
// service runs two simulations at once on the two-core budget.
const serviceWorkers = 2

func startService(root string, counted bool) (s *service, err error) {
	dir, err := os.MkdirTemp(root, "state-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s = &service{dir: dir, cancel: cancel}
	defer func() {
		if err != nil {
			s.discard()
		}
	}()
	if counted {
		s.wire = &wireCounters{}
	}
	var addrs []string
	for i := 0; i < serviceWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return s, err
		}
		addrs = append(addrs, ln.Addr().String())
		var l net.Listener = ln
		if counted {
			l = &countingListener{Listener: ln, c: s.wire}
		}
		w := &fleetnet.Server{Capacity: 1}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Serve(ctx, l)
		}()
	}
	store, err := durable.OpenStore(dir)
	if err != nil {
		return s, err
	}
	s.js = fleetnet.NewJobServer(fleetnet.New(addrs))
	s.js.Workers = 1
	s.js.Store = store
	if err := s.js.Recover(); err != nil {
		return s, err
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.srv = &http.Server{Handler: s.js.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(hl)
	}()
	s.c = newClient("http://" + hl.Addr().String())
	return s, nil
}

// close drains the service and waits for every goroutine it started. The
// state dir stays for the caller to inspect or remove.
func (s *service) close() {
	if s.c != nil {
		s.c.hc.CloseIdleConnections()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
	}
	if s.js != nil {
		s.js.Close()
	}
	s.cancel()
	s.wg.Wait()
}

// discard closes the service and removes its state dir.
func (s *service) discard() {
	s.close()
	os.RemoveAll(s.dir)
}

// wireCounters tally the worker daemons' side of the wire: connections
// accepted, bytes read (shard requests) and written (sample, result and
// heartbeat frames), and the time spent inside Write.
type wireCounters struct {
	conns, in, out, writeNs atomic.Int64
}

type wireSnapshot struct{ conns, in, out, writeNs int64 }

func (w *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{w.conns.Load(), w.in.Load(), w.out.Load(), w.writeNs.Load()}
}

type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.conns.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNs.Add(int64(time.Since(t)))
	c.c.out.Add(int64(n))
	return n, err
}

// client is the closed-loop load generator: one goroutine, at most two
// HTTP connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (c *client) submit(ctx context.Context, spec []byte) (string, error) {
	resp, err := c.do(ctx, http.MethodPost, "/jobs", spec)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("POST /jobs: %w", err)
	}
	return body.ID, nil
}

// finalFrame is the part of an SSE snapshot the harness reads.
type finalFrame struct {
	Status     string `json:"status"`
	Final      bool   `json:"final"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Total      int    `json:"total"`
	Samples    int64  `json:"samples"`
	Aggregates struct {
		Comfort []obs.Comfort `json:"comfort"`
	} `json:"aggregates"`
}

// stream reads a streaming response line by line, calling fn for each
// line (without its newline) and first once, at the first line. It
// returns the bytes read.
func (c *client) stream(ctx context.Context, path string, first func(), fn func(line []byte) error) (int64, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var n int64
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A line longer than the buffer: gather it whole.
			rest, rerr := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), rerr
		}
		if len(line) > 0 {
			if n == 0 && first != nil {
				first()
			}
			n += int64(len(line))
			if ferr := fn(bytes.TrimRight(line, "\n")); ferr != nil {
				return n, ferr
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("GET %s: %w", path, err)
		}
	}
}

// awaitFinal follows a job's SSE stream to its final frame.
func (c *client) awaitFinal(ctx context.Context, id string, first func()) (*finalFrame, int64, error) {
	var fin *finalFrame
	n, err := c.stream(ctx, "/jobs/"+id+"/events", first, func(line []byte) error {
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			return nil
		}
		var f finalFrame
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("job %s event: %w", id, err)
		}
		if f.Final {
			fin = &f
		}
		return nil
	})
	if err == nil && fin == nil {
		err = fmt.Errorf("job %s: event stream ended without a final frame", id)
	}
	return fin, n, err
}

// jobStatus is GET /jobs/{id}.
type jobStatus struct {
	Status  string                  `json:"status"`
	Done    int                     `json:"done"`
	Total   int                     `json:"total"`
	Error   string                  `json:"error"`
	Comfort []analytics.UserComfort `json:"comfort"`
}

// awaitStatus polls a job's status until it is terminal.
func (c *client) awaitStatus(ctx context.Context, id string) (*jobStatus, error) {
	for {
		var st jobStatus
		if err := c.getJSON(ctx, "/jobs/"+id, &st); err != nil {
			return nil, err
		}
		if st.Status != "running" {
			return &st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// telemetryLine extracts the job index, simulated time and skin
// temperature from one JSONL telemetry line (the fixed field order of
// sink.AppendJSONL).
func telemetryLine(line []byte) (job int, t, skin float64, err error) {
	field := func(key string) ([]byte, error) {
		i := bytes.Index(line, []byte(`"`+key+`":`))
		if i < 0 {
			return nil, fmt.Errorf("telemetry line without %q: %.80s", key, line)
		}
		v := line[i+len(key)+3:]
		if j := bytes.IndexAny(v, ",}"); j >= 0 {
			v = v[:j]
		}
		return v, nil
	}
	v, err := field("job")
	if err == nil {
		job, err = strconv.Atoi(string(v))
	}
	if err == nil {
		if v, err = field("t"); err == nil {
			t, err = strconv.ParseFloat(string(v), 64)
		}
	}
	if err == nil {
		if v, err = field("skin_c"); err == nil {
			skin, err = strconv.ParseFloat(string(v), 64)
		}
	}
	return job, t, skin, err
}

// walBytes sums the state dir's write-ahead logs.
func walBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// recoverState times a restarted coordinator's read side: a fresh store
// and job server replaying the finished state dir. It returns the elapsed
// time and the recovered jobs' statuses.
func recoverState(dir string) (time.Duration, []jobStatus, error) {
	t := time.Now()
	store, err := durable.OpenStore(dir)
	if err != nil {
		return 0, nil, err
	}
	js := fleetnet.NewJobServer(nil)
	js.Store = store
	if err := js.Recover(); err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(t)
	defer js.Close()
	rr := httptest.NewRecorder()
	js.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	var jobs []jobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &jobs); err != nil {
		return 0, nil, fmt.Errorf("recovered job list: %w", err)
	}
	return elapsed, jobs, nil
}
