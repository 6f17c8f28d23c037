package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/trace"
)

// Zero-copy serving: the memory tier, the flight table, and the durable
// store all move canonical frames — a response's compact wire encoding,
// produced exactly once when it is computed. Serving a hit is then a byte
// splice into the response, never a re-encode: the frame is shared
// read-only by every caller that hits it. Only library callers
// (Planner.Plan, Estimate, PlanBatch) decode a frame back into a struct.
//
// The canonical payload frame is json.Marshal of the response struct with
// the serving flags (Cached, Coalesced) false — exactly the encoding batch
// item payloads have always used, byte-stable across the single endpoint,
// the batch endpoint, and the store tiers.

// frameTail is the canonical frame's closing bytes: Cached is the last
// always-encoded field of both PlanResponse and EstimateResponse, and the
// canonical value is false (Coalesced and Degraded are omitempty and false
// in anything kept). Splicing a hit's serving flags replaces this tail in
// place of re-encoding the payload.
const frameTail = `"cached":false}`

// spliceAt returns the offset of frameTail within frame, or -1 when the
// tail is not where the canonical encoder puts it (a degraded payload).
func spliceAt(frame []byte) int {
	at := len(frame) - len(frameTail)
	if at < 0 || string(frame[at:]) != frameTail {
		return -1
	}
	return at
}

// encodeFrame produces the canonical frame for a freshly built response —
// the one cold encode a payload ever gets. Metered into the encode_ns
// histogram, the cold-encode counter, and the request's encode stage span.
func (p *Planner) encodeFrame(v any, tc *trace.Ctx) ([]byte, error) {
	start := time.Now()
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	p.metrics.observeEncode(time.Since(start))
	p.obsStage(tc, trace.StageEncode, start)
	return b, nil
}

// served is how a resolved request travels to the HTTP layer: the shared
// frame, where its serving flags splice in, and how it was served — the
// flags belong to this caller's envelope, not to the canonical payload.
type served struct {
	frame  []byte
	splice int    // spliceAt(frame)
	source string // sourceCached, sourceCoalesced, sourceComputed or sourceDegraded
}

func newServed(frame []byte, source string) served {
	return served{frame: frame, splice: spliceAt(frame), source: source}
}

// flags are the payload's serving flags for this caller.
func (sv served) flags() (cached, coalesced bool) {
	return sv.source == sourceCached, sv.source == sourceCoalesced
}

// spliced reports whether the payload was served off a frame this
// caller did not encode: a memory or store hit, or another caller's
// flight.
func (sv served) spliced() bool {
	cached, coalesced := sv.flags()
	return cached || coalesced
}

// decode builds the struct view of a served payload for library callers.
func (sv served) decode(dst any) error {
	if err := json.Unmarshal(sv.frame, dst); err != nil {
		return fmt.Errorf("service: decoding served frame: %w", err)
	}
	return nil
}

// appendServed writes the payload with this caller's serving flags spliced
// into the canonical frame: the frame bytes are shared, never mutated, and
// only the constant-size tail differs between callers. Flags-false serves
// (computed, degraded) copy the frame verbatim. Every frame in memory, in
// flight, or read from a store carries the canonical tail (decodeStored
// checks it), so a flagged serve always splices.
func appendServed(buf *bytes.Buffer, sv served) {
	cached, coalesced := sv.flags()
	if (!cached && !coalesced) || sv.splice < 0 {
		buf.Write(sv.frame)
		return
	}
	buf.Write(sv.frame[:sv.splice])
	if cached {
		buf.WriteString(`"cached":true}`)
	} else {
		buf.WriteString(`"cached":false,"coalesced":true}`)
	}
}

// maxPooledBuf bounds what goes back into the buffer pool: one huge
// response (a near-cap instance is megabytes of JSON) must not pin its
// scratch forever under steady small-response traffic.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// bufioPool holds the batch envelope writers: batch responses stream item
// frames through a fixed-size buffer instead of materializing the whole
// document, so the response's memory cost is bounded by this buffer, not
// by the batch size.
var bufioPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}

func getBufio(w io.Writer) *bufio.Writer {
	bw := bufioPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putBufio(bw *bufio.Writer) {
	bw.Reset(io.Discard) // drop the ResponseWriter reference before pooling
	bufioPool.Put(bw)
}
