package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/service"
)

// checker verifies every answer the server gives. The first answer to a
// key is decoded and checked in full; later answers to a recurring key
// must repeat its payload byte for byte.
type checker struct {
	mu       sync.Mutex
	canon    map[int][]byte // verified payload per recurring key
	sampled  map[*request][]byte
	frames   [][]byte // verified payloads kept for the layer pass
	failures int
	errs     []error
}

// keptFrames bounds the payloads kept for the layer pass.
const keptFrames = 64

func newChecker() *checker {
	return &checker{canon: map[int][]byte{}, sampled: map[*request][]byte{}}
}

func (ck *checker) fail(err error) {
	ck.mu.Lock()
	ck.failures++
	if len(ck.errs) < 5 {
		ck.errs = append(ck.errs, err)
	}
	ck.mu.Unlock()
}

// failed returns the failure count and the first few failures.
func (ck *checker) failed() (int, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.failures, errors.Join(ck.errs...)
}

// Serving-flag tails the server splices onto a canonical payload.
var (
	tailCanonical = []byte(`"cached":false}`)
	tailCached    = []byte(`"cached":true}`)
	tailCoalesced = []byte(`"cached":false,"coalesced":true}`)
)

// servingTail returns the serving-flags tail b ends with, or nil.
func servingTail(b []byte) []byte {
	for _, tail := range [][]byte{tailCanonical, tailCached, tailCoalesced} {
		if bytes.HasSuffix(b, tail) {
			return tail
		}
	}
	return nil
}

// canonicalPayload returns body with its serving flags reset, which is
// the payload every answer to the same request must share.
func canonicalPayload(body []byte) ([]byte, error) {
	b := bytes.TrimSuffix(body, []byte("\n"))
	tail := servingTail(b)
	if tail == nil {
		return nil, fmt.Errorf("payload does not end in a serving-flags field: %.80q", tailOf(b))
	}
	out := make([]byte, 0, len(b)-len(tail)+len(tailCanonical))
	out = append(out, b[:len(b)-len(tail)]...)
	return append(out, tailCanonical...), nil
}

func tailOf(b []byte) []byte {
	if len(b) > 80 {
		return b[len(b)-80:]
	}
	return b
}

func (ck *checker) check(r *request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if r.repeat {
		ck.mu.Lock()
		prev, seen := ck.canon[r.key]
		ck.mu.Unlock()
		if seen {
			// The splice replaces only the tail, so the prefix must match
			// exactly; comparing in place avoids a copy per hit.
			b := bytes.TrimSuffix(body, []byte("\n"))
			n := len(prev) - len(tailCanonical)
			tail := servingTail(b)
			if tail == nil || len(b) != n+len(tail) || !bytes.Equal(b[:n], prev[:n]) {
				return errors.New("payload differs from the verified payload for the same request")
			}
			return nil
		}
	}
	payload, err := canonicalPayload(body)
	if err != nil {
		return err
	}
	var p service.PlanResponse
	if err := json.Unmarshal(payload, &p); err != nil {
		return fmt.Errorf("decoding plan: %w", err)
	}
	if err := checkPlan(&p, &r.exp); err != nil {
		return err
	}
	ck.mu.Lock()
	if r.repeat {
		ck.canon[r.key] = payload
	}
	if r.sampled {
		ck.sampled[r] = payload
	}
	if len(ck.frames) < keptFrames {
		ck.frames = append(ck.frames, payload)
	}
	ck.mu.Unlock()
	return nil
}

// checkPlan checks a plan against its request and the invariants the
// paper's rounding guarantees (the ones TestPropertyPaperInvariants
// checks): t* finite and non-negative, every run's job in range with a
// positive step count, every job given at least one step, every machine
// row within the schedule length, and the lower bound at most t*.
func checkPlan(p *service.PlanResponse, e *expect) error {
	switch {
	case p.Fingerprint != e.fingerprint:
		return fmt.Errorf("fingerprint %s, want %s", p.Fingerprint, e.fingerprint)
	case p.Class != e.class || p.M != e.m || p.N != e.n:
		return fmt.Errorf("class %s m=%d n=%d, want %s m=%d n=%d", p.Class, p.M, p.N, e.class, e.m, e.n)
	case p.Degraded:
		return errors.New("degraded plan")
	case math.IsNaN(p.TStar) || math.IsInf(p.TStar, 0) || p.TStar < 0:
		return fmt.Errorf("t* = %v", p.TStar)
	case p.LowerBound > p.TStar:
		return fmt.Errorf("lower_bound %v above t* %v", p.LowerBound, p.TStar)
	case len(p.Machines) > p.M:
		return fmt.Errorf("%d machine rows for m=%d", len(p.Machines), p.M)
	}
	steps := make([]int64, p.N)
	for i, runs := range p.Machines {
		var row int64
		for _, run := range runs {
			if run.Job < 0 || run.Job >= p.N || run.Steps <= 0 {
				return fmt.Errorf("bad run %+v on machine %d", run, i)
			}
			steps[run.Job] += run.Steps
			row += run.Steps
		}
		if row > p.Length {
			return fmt.Errorf("machine %d row length %d exceeds schedule length %d", i, row, p.Length)
		}
	}
	for j, s := range steps {
		if s == 0 {
			return fmt.Errorf("job %d unassigned", j)
		}
	}
	return nil
}

// checkReferences recomputes every sampled request in process with
// Planner.Plan and compares the plan with the served one, field for
// field: both are the canonical encoding with the serving flags false.
func (ck *checker) checkReferences() (int, error) {
	p := service.NewPlanner(service.Config{})
	defer p.Close()
	n := 0
	for r, served := range ck.sampled {
		resp, err := p.Plan(context.Background(), r.plan)
		if err != nil {
			return n, fmt.Errorf("reference for %s key %d: %w", r.path, r.key, err)
		}
		c := *resp
		c.Cached, c.Coalesced = false, false
		want, err := json.Marshal(&c)
		if err != nil {
			return n, err
		}
		if !bytes.Equal(want, served) {
			return n, fmt.Errorf("%s key %d: served payload differs from the in-process reference", r.path, r.key)
		}
		n++
	}
	return n, nil
}
