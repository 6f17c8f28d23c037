package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"hash/maphash"
	"sync"

	"repro/internal/model"
)

// The request-side half of zero-copy serving. Response payloads are
// encoded once and spliced thereafter (frame.go); this file is the
// mirror image for requests: an instance is *decoded* once and reused
// thereafter. The HTTP handlers capture each request's instance as raw
// JSON (json.RawMessage — a scan and a copy, no float parsing) and
// resolve it through a small LRU keyed by those bytes. A fleet of
// similar workloads re-sends the same instances over and over — the
// exact regime the response cache already exploits — and for a warm
// n=64/m=16 batch the instance decode is ~95% of server CPU, so this
// cache is what moves the serving throughput needle.
//
// Correctness does not ride on the hash: an entry stores the raw bytes
// it was decoded from, and a lookup must match them byte-for-byte
// (bytes.Equal) before the decoded instance is shared. A hash collision
// is therefore a harmless miss, never a wrong instance. Decoded
// instances are immutable after model.New validation (the planner only
// reads them), so sharing one pointer across concurrent requests is
// safe — the same contract cached responses already carry.

// decodeCacheBytes bounds the memory the planner's cache retains. Each
// entry is charged its raw bytes plus its decoded instance (entryBytes):
// the Q and L matrices alone take 16·m·n bytes, comparable to the JSON
// they came from, so a raw-bytes-only charge would let the cache hold
// about twice its budget.
const decodeCacheBytes = 32 << 20

// decodeEntryOverhead approximates an entry's fixed cost: the list
// element, the entry struct and its map slot.
const decodeEntryOverhead = 160

// entryBytes is what one entry is charged against the cache's budget: the
// raw key bytes, the decoded instance's two m×n matrices with their row
// headers, and the precedence DAG's adjacency lists, if any.
func entryBytes(raw []byte, ins *model.Instance) int64 {
	m, jobs := int64(ins.M), int64(ins.N)
	n := int64(len(raw)) + decodeEntryOverhead + 2*m*(24+8*jobs)
	if ins.Prec != nil {
		n += 48*jobs + 16*int64(ins.Prec.Edges())
	}
	return n
}

type decodeCache struct {
	mu    sync.Mutex
	cap   int64
	size  int64
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element
}

type decodeEntry struct {
	key  uint64
	raw  []byte
	ins  *model.Instance
	cost int64 // entryBytes(raw, ins), charged while the entry is held
}

func newDecodeCache() *decodeCache {
	return &decodeCache{cap: decodeCacheBytes, ll: list.New(), items: make(map[uint64]*list.Element)}
}

// rawSeed keys hashRaw for the life of the process.
var rawSeed = maphash.MakeSeed()

// hashRaw hashes the raw instance bytes with the runtime's word-at-a-time
// hash. Collisions are a performance event only (the byte-compare in get
// rejects them), so one 64-bit lane is enough.
func hashRaw(b []byte) uint64 { return maphash.Bytes(rawSeed, b) }

func (c *decodeCache) get(key uint64, raw []byte) (*model.Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := e.Value.(*decodeEntry)
	if !bytes.Equal(ent.raw, raw) {
		return nil, false // hash collision: treat as a miss
	}
	c.ll.MoveToFront(e)
	return ent.ins, true
}

func (c *decodeCache) put(key uint64, raw []byte, ins *model.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		// Same key raced in twice (or a collision replaces its victim):
		// keep the newest decode.
		ent := e.Value.(*decodeEntry)
		cost := entryBytes(raw, ins)
		c.size += cost - ent.cost
		ent.raw, ent.ins, ent.cost = raw, ins, cost
		c.ll.MoveToFront(e)
	} else {
		ent := &decodeEntry{key: key, raw: raw, ins: ins, cost: entryBytes(raw, ins)}
		c.items[key] = c.ll.PushFront(ent)
		c.size += ent.cost
	}
	for c.size > c.cap && c.ll.Len() > 1 {
		back := c.ll.Back()
		ent := back.Value.(*decodeEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.size -= ent.cost
	}
}

// The wire request types mirror their API structs with the instance held
// as raw bytes: decoding one costs a scan and a copy, and the instance is
// resolved through the decode cache afterwards. The field sets must stay
// exactly in sync with PlanRequest / BatchPlanRequest / EstimateRequest —
// they are the same documents, read lazily.

type wirePlanRequest struct {
	Instance   json.RawMessage `json:"instance"`
	Target     float64         `json:"target,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

type wireBatchRequest struct {
	Items      []wirePlanRequest `json:"items"`
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
}

type wireEstimateRequest struct {
	Instance   json.RawMessage `json:"instance"`
	Policy     string          `json:"policy,omitempty"`
	Trials     int             `json:"trials,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
	Stream     bool            `json:"stream,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// resolvePlanItem turns a wire plan item into the API struct, resolving
// its instance through the decode cache.
func (p *Planner) resolvePlanItem(wp *wirePlanRequest) (*PlanRequest, error) {
	ins, err := p.decodeInstance(wp.Instance)
	if err != nil {
		return nil, err
	}
	return &PlanRequest{Instance: ins, Target: wp.Target, DeadlineMS: wp.DeadlineMS}, nil
}

// jsonNull reports whether raw is the JSON null literal — the decoder
// hands it through verbatim, and it must behave exactly like an absent
// instance (a nil pointer field), not like a zero instance.
func jsonNull(raw []byte) bool { return len(raw) == 4 && string(raw) == "null" }

// decodeInstance resolves a request's raw instance bytes to a decoded
// instance, through the cache. The raw bytes are owned by the caller's
// request document and are retained by the cache (json.RawMessage copies
// out of the decoder's buffer, so retention is safe). Absent/null
// instances return nil — validation rejects them with the same "missing
// instance" error the typed decode path produced.
func (p *Planner) decodeInstance(raw json.RawMessage) (*model.Instance, error) {
	if len(raw) == 0 || jsonNull(raw) {
		return nil, nil
	}
	key := hashRaw(raw)
	if ins, ok := p.decode.get(key, raw); ok {
		p.metrics.decodeHits.Add(1)
		return ins, nil
	}
	ins := &model.Instance{}
	if err := json.Unmarshal(raw, ins); err != nil {
		return nil, badRequestf("decoding request: %v", err)
	}
	p.metrics.decodeMisses.Add(1)
	p.decode.put(key, raw, ins)
	return ins, nil
}
