package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// client sends requests over at most conns keep-alive connections and
// counts the bytes that cross them.
type client struct {
	base  string
	conns int
	hc    *http.Client
	tx    atomic.Int64 // bytes written to the server
	rx    atomic.Int64 // bytes read from the server
}

// requestTimeout bounds one request; a request past it counts as failed.
const requestTimeout = 20 * time.Second

func newClient(base string, conns int) *client {
	c := &client{base: base, conns: conns}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	c.hc = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: conn, c: c}, nil
			},
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	c *client
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.rx.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.tx.Add(int64(n))
	return n, err
}

// do sends one request and reads the whole response into buf.
func (c *client) do(r *request, buf *bytes.Buffer) (status int, traceHdr string, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header.Get(trace.ResponseHeader), nil
}

// op is the record of one attempted request.
type op struct {
	ok bool
	// lat runs from the due time (open loop) or the send (closed loop)
	// to the last response byte.
	lat time.Duration
	// svc runs from the send to the last response byte.
	svc time.Duration
	// lag is send time minus due time, recorded only when a connection
	// was free at the due time, so it is the generator's own lateness.
	lag   time.Duration
	lagOK bool
	// tr is the parsed X-Suu-Trace header, when the response carried one.
	tr     trace.Summary
	traced bool
	// done is when the last response byte arrived.
	done time.Time
	// due is the open-loop arrival's offset from the phase start.
	due time.Duration
}

// phase is the outcome of one timed phase.
type phase struct {
	ops     []op
	start   time.Time
	elapsed time.Duration // until the last op finished
	window  time.Duration // the phase's nominal length
}

// exchange runs one request on a worker and checks its answer.
func (c *client) exchange(r *request, buf *bytes.Buffer, ck *checker, o *op) {
	sent := time.Now()
	status, hdr, err := c.do(r, buf)
	o.done = time.Now()
	o.svc = o.done.Sub(sent)
	if err == nil {
		err = ck.check(r, status, buf.Bytes())
	}
	if err != nil {
		ck.fail(fmt.Errorf("%s key %d: %w", r.path, r.key, err))
		return
	}
	o.ok = true
	if hdr != "" {
		o.tr, o.traced = trace.ParseHeader(hdr)
	}
}

// drainGrace is how long after the open-loop schedule ends queued
// arrivals may still be sent; arrivals still unsent then count as failed.
const drainGrace = 2 * time.Second

// openLoop issues reqs[i] at offsets[i] from the phase start over conns
// of the client's connections. Arrivals due while every one is busy wait
// in a FIFO; each is timed from its due time, so queueing in the
// generator counts against the server.
func (c *client) openLoop(reqs []*request, offsets []time.Duration, window time.Duration, conns int, ck *checker) *phase {
	ph := &phase{ops: make([]op, len(reqs)), window: window}
	// Sized to the number of sends: the dispatcher never blocks, so a
	// stalled server grows the FIFO instead of delaying later arrivals.
	fifo := make(chan int, len(reqs))
	ph.start = time.Now().Add(5 * time.Millisecond)
	closeAt := ph.start.Add(window + drainGrace)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				freeAt := time.Now()
				i, ok := <-fifo
				if !ok {
					return
				}
				o := &ph.ops[i]
				o.due = offsets[i]
				due := ph.start.Add(offsets[i])
				now := time.Now()
				if now.After(closeAt) {
					ck.fail(fmt.Errorf("open-loop arrival %d still unsent %v after the schedule ended", i, drainGrace))
					continue
				}
				if !freeAt.After(due) {
					o.lag, o.lagOK = now.Sub(due), true
				}
				c.exchange(reqs[i], &buf, ck, o)
				o.lat = o.done.Sub(due)
			}
		}()
	}
	for i, off := range offsets {
		if d := time.Until(ph.start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		fifo <- i
	}
	close(fifo)
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	return ph
}

// closedLoop keeps every connection busy with reqs, in order, until the
// window ends or reqs run out. Ops in flight at the end still complete.
func (c *client) closedLoop(reqs []*request, window time.Duration, ck *checker) *phase {
	ph := &phase{ops: make([]op, len(reqs)), window: window}
	var next atomic.Int64
	ph.start = time.Now()
	end := ph.start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for window == 0 || time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &ph.ops[i]
				c.exchange(reqs[i], &buf, ck, o)
				o.lat = o.svc
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	ph.ops = ph.ops[:n]
	return ph
}

// completedBy counts ops that succeeded by t.
func (ph *phase) completedBy(t time.Time) int {
	n := 0
	for i := range ph.ops {
		if ph.ops[i].ok && !ph.ops[i].done.After(t) {
			n++
		}
	}
	return n
}

// counts returns attempted, succeeded and failed ops.
func (ph *phase) counts() (attempted, ok, failed int) {
	for i := range ph.ops {
		attempted++
		if ph.ops[i].ok {
			ok++
		} else {
			failed++
		}
	}
	return attempted, ok, failed
}
