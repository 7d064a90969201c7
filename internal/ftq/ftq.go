// Package ftq implements the Fetch Target Queue, the only structure FDP
// adds to a decoupled frontend (§IV-A). Each entry covers a 32-byte-aligned
// instruction block (up to 8 fixed-length instructions), carries the
// per-instruction direction hints that enable post-fetch correction, and
// walks the paper's 4-state I-TLB/I-cache lifecycle. The package also
// computes the Table III hardware cost.
package ftq

import (
	"fmt"

	"fdp/internal/bpred"
	"fdp/internal/obs"
	"fdp/internal/program"
	"fdp/internal/ras"
)

// BlockBytes is the instruction-block granularity of an FTQ entry.
const BlockBytes = 32

// BlockInsts is the maximum number of instructions per entry.
const BlockInsts = BlockBytes / program.InstBytes

// State is the entry lifecycle from Table III / §IV-C.
type State uint8

const (
	// StateInvalid marks an unused entry.
	StateInvalid State = iota
	// StateReady means branch prediction completed; the entry awaits
	// address translation and the I-cache tag probe.
	StateReady
	// StateWaitFill means the tag probe missed and an I-cache fill is in
	// flight.
	StateWaitFill
	// StateFetchable means the way is known and instructions can be sent
	// to the decode queue.
	StateFetchable
)

// BlockBase returns the 32-byte-aligned base of the block containing pc.
func BlockBase(pc uint64) uint64 { return pc &^ (BlockBytes - 1) }

// Offset returns pc's instruction offset within its block (0..7).
func Offset(pc uint64) int { return int(pc>>2) & (BlockInsts - 1) }

// Entry is one FTQ entry. The hardware fields are those of Table III; the
// remaining fields are simulator bookkeeping (timing, checkpoints for
// recovery, and statistics attribution).
type Entry struct {
	// StartPC is the first instruction covered (48-bit in hardware).
	StartPC uint64
	// EndOffset is the block-relative offset of the last covered
	// instruction: the predicted-taken branch, or the block's final slot.
	EndOffset int
	// PredictedTaken indicates the block is terminated by a
	// predicted-taken branch at EndOffset.
	PredictedTaken bool
	// Hints holds one direction-hint bit per block offset (EV8-style
	// prediction of every instruction; drives PFC).
	Hints uint8
	// Way is the I-cache way holding the block (valid in StateFetchable).
	Way int8
	// State is the entry lifecycle state.
	State State

	// NextPC is the predicted successor address of the block (taken
	// target, or sequential block start). Simulator-only: hardware
	// re-derives it from the following entry.
	NextPC uint64
	// Detected marks block offsets where the prediction pipe detected a
	// branch via BTB hit (used to replay direction history on recovery).
	Detected uint8
	// DetectedTaken marks detected offsets that were predicted taken.
	DetectedTaken uint8

	// FillInitiated/FillDone/FillAtHead/Missed track the I-cache fill for
	// the exposed-miss classification of §VI-G.
	FillInitiated bool
	FillAtHead    bool
	FillDone      uint64
	Missed        bool

	// FetchedUpTo is the next block offset to deliver to decode.
	FetchedUpTo int
	// PFCChecked notes that pre-decode already scanned this entry.
	PFCChecked bool
	// PFCApplied marks an entry whose terminator was re-steered by PFC.
	PFCApplied bool
	// RetryAt delays the next tag-probe attempt (I-TLB miss penalty).
	RetryAt uint64
	// Translated notes that the entry's I-TLB walk completed (the walk
	// response belongs to this entry even if the TLB entry is evicted).
	Translated bool
	// StarvAtReq snapshots the global starvation count when the fill was
	// requested (exposed-miss classification, §VI-G).
	StarvAtReq uint64
	// WrongPath marks entries created after a known divergence
	// (statistics only; the core discovers divergence architecturally).
	WrongPath bool

	// Hist and RAS are the speculative-state checkpoints taken when the
	// entry was created, restored on PFC re-steers and history fixups.
	Hist bpred.Snapshot
	RAS  ras.Snapshot

	// Seq is a monotonically increasing identifier.
	Seq uint64
}

// StartOffset returns the block offset of StartPC.
func (e *Entry) StartOffset() int { return Offset(e.StartPC) }

// BlockBase returns the 32-byte-aligned block address.
func (e *Entry) BlockBase() uint64 { return BlockBase(e.StartPC) }

// NumInsts returns how many instructions the entry covers.
func (e *Entry) NumInsts() int { return e.EndOffset - e.StartOffset() + 1 }

// PCAt returns the instruction address at block offset o.
func (e *Entry) PCAt(o int) uint64 {
	return e.BlockBase() + uint64(o)*program.InstBytes
}

// HintAt returns the direction hint for block offset o.
func (e *Entry) HintAt(o int) bool { return e.Hints>>uint(o)&1 == 1 }

// DetectedAt reports whether the prediction pipe saw a BTB hit at offset o.
func (e *Entry) DetectedAt(o int) bool { return e.Detected>>uint(o)&1 == 1 }

// FTQ is a fixed-capacity queue of entries, stored in a ring so that
// checkpoints (which embed slices) are allocated once.
type FTQ struct {
	entries []Entry
	head    int
	size    int
	nextSeq uint64
	tr      *obs.Tracer // nil unless event tracing is attached
}

// SetTrace attaches (or detaches, with nil) an event tracer; Push and
// PopHead then emit enqueue/dequeue events with occupancy.
func (q *FTQ) SetTrace(tr *obs.Tracer) { q.tr = tr }

// New creates an FTQ with the given entry capacity.
func New(capacity int) *FTQ {
	if capacity <= 0 {
		panic("ftq: non-positive capacity")
	}
	return &FTQ{entries: make([]Entry, capacity)}
}

// Cap returns the capacity.
func (q *FTQ) Cap() int { return len(q.entries) }

// Len returns the current occupancy.
func (q *FTQ) Len() int { return q.size }

// Full reports whether a Push would fail.
func (q *FTQ) Full() bool { return q.size == len(q.entries) }

// Empty reports whether the queue has no entries.
func (q *FTQ) Empty() bool { return q.size == 0 }

// Push claims the next entry, resetting its hardware fields but leaving
// its checkpoints, which the caller overwrites. It panics when full (callers check
// Full; pushing into a full FTQ is a frontend bug).
func (q *FTQ) Push() *Entry {
	if q.Full() {
		panic("ftq: push into full queue")
	}
	idx := q.head + q.size
	if idx >= len(q.entries) {
		idx -= len(q.entries)
	}
	q.size++
	e := &q.entries[idx]
	// Reset field by field rather than assigning a fresh Entry literal:
	// the struct write would also clear the inline history checkpoint
	// (256 bytes) and drop the RAS checkpoint's buffer, on every predicted
	// block, just before Save rewrites both. Every field except the two
	// checkpoints must be zeroed here.
	e.StartPC, e.NextPC = 0, 0
	e.EndOffset, e.FetchedUpTo = 0, 0
	e.PredictedTaken = false
	e.Hints, e.Detected, e.DetectedTaken = 0, 0, 0
	e.Way = 0
	e.State = StateInvalid
	e.FillInitiated, e.FillAtHead, e.Missed = false, false, false
	e.FillDone, e.RetryAt, e.StarvAtReq = 0, 0, 0
	e.PFCChecked, e.PFCApplied, e.Translated, e.WrongPath = false, false, false, false
	e.Seq = q.nextSeq
	q.nextSeq++
	if q.tr != nil {
		q.tr.Emit(obs.EvFTQEnqueue, e.Seq, uint64(q.size))
	}
	return e
}

// At returns the i-th oldest entry (0 = head). The panic message is a
// constant so the function stays within the inlining budget of the hot
// per-cycle scans.
func (q *FTQ) At(i int) *Entry {
	if uint(i) >= uint(q.size) {
		panic("ftq: At index out of range")
	}
	j := q.head + i
	if j >= len(q.entries) {
		j -= len(q.entries)
	}
	return &q.entries[j]
}

// Views returns the occupied entries, oldest first, as up to two
// contiguous slices of the backing ring (the second is non-empty only when
// the occupancy wraps). Per-cycle scans iterate these directly instead of
// paying an index computation per At call. Entries may be mutated through
// the returned slices; the views are invalidated by any Push/Pop/flush.
func (q *FTQ) Views() (a, b []Entry) {
	n := q.head + q.size
	if n <= len(q.entries) {
		return q.entries[q.head:n], nil
	}
	return q.entries[q.head:], q.entries[:n-len(q.entries)]
}

// Head returns the oldest entry, or nil when empty.
func (q *FTQ) Head() *Entry {
	if q.size == 0 {
		return nil
	}
	return &q.entries[q.head]
}

// PopHead releases the oldest entry.
func (q *FTQ) PopHead() {
	if q.size == 0 {
		panic("ftq: pop from empty queue")
	}
	q.entries[q.head].State = StateInvalid
	if q.tr != nil {
		q.tr.Emit(obs.EvFTQDequeue, q.entries[q.head].Seq, uint64(q.size-1))
	}
	q.head++
	if q.head == len(q.entries) {
		q.head = 0
	}
	q.size--
}

// TruncateAfter drops every entry younger than index i (keeping 0..i).
func (q *FTQ) TruncateAfter(i int) {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("ftq: TruncateAfter(%d) with size %d", i, q.size))
	}
	for j := i + 1; j < q.size; j++ {
		k := q.head + j
		if k >= len(q.entries) {
			k -= len(q.entries)
		}
		q.entries[k].State = StateInvalid
	}
	q.size = i + 1
}

// Flush drops all entries.
func (q *FTQ) Flush() {
	for j := 0; j < q.size; j++ {
		k := q.head + j
		if k >= len(q.entries) {
			k -= len(q.entries)
		}
		q.entries[k].State = StateInvalid
	}
	q.size = 0
}

// HardwareCost describes the per-entry and total storage of the FTQ per
// Table III.
type HardwareCost struct {
	StartAddrBits int
	PredTakenBits int
	EndOffsetBits int
	WayBits       int
	StateBits     int
	HintBits      int
	Entries       int
	PerEntryBits  int
	TotalBits     int
	TotalBytes    int
	PFCExtraBits  int // hint bits are the only PFC addition (§IV-A)
	PFCExtraBytes int
}

// Cost returns the Table III hardware cost for an FTQ with n entries.
// For n = 24 the total is the paper's 195 bytes and the PFC-specific
// overhead is 24 bytes.
func Cost(n int) HardwareCost {
	c := HardwareCost{
		StartAddrBits: 48,
		PredTakenBits: 1,
		EndOffsetBits: 3,
		WayBits:       3,
		StateBits:     2,
		HintBits:      8,
		Entries:       n,
	}
	c.PerEntryBits = c.StartAddrBits + c.PredTakenBits + c.EndOffsetBits +
		c.WayBits + c.StateBits + c.HintBits
	c.TotalBits = c.PerEntryBits * n
	c.TotalBytes = (c.TotalBits + 7) / 8
	c.PFCExtraBits = c.HintBits * n
	c.PFCExtraBytes = (c.PFCExtraBits + 7) / 8
	return c
}
