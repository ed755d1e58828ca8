package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"a2sgd/internal/comm"
)

// Span recording for the traced pass. Spans are taken only at boundaries the
// harness owns: the per-step tick and Send/Recv of the probe transport, the
// EncodeView/ExchangeView calls of the traced(...) decorator, the snapshot
// sink, and — on the sync workloads, whose step loop lives in this package —
// step, post and wait. Recording writes into a per-rank slice allocated up
// front through an atomic cursor, so goroutines of one rank never contend on
// a lock and the steady state stays off the allocator.

type spanKind uint8

const (
	spStep spanKind = iota
	spEncode
	spPost
	spWait
	spExchange
	spSend
	spRecv
	spSnapshot
)

var spanNames = [...]string{
	spStep:     "step",
	spEncode:   "compress.encode",
	spPost:     "comm.post",
	spWait:     "comm.wait",
	spExchange: "compress.exchange",
	spSend:     "tcpnet.send",
	spRecv:     "tcpnet.recv",
	spSnapshot: "elastic.snapshot",
}

// Lanes are the tracks of one rank: one per goroutine that can hold a span.
// The rank goroutine is lane 0. Every communicator an exchange runs on (the
// root and each tag-space context) has its progress worker, numbered in
// first-use order from laneExchange. Send and Recv are told apart by the
// context bits of the tag: a send runs on the collective's helper goroutine
// on rendezvous transports, so it gets a track of its own.
const (
	laneMain     = 0
	laneExchange = 1
	laneSend     = 16
	laneRecv     = 24
	ctxTagShift  = 28 // comm's tag-space context bits
)

type span struct {
	kind       spanKind
	lane       uint8
	bucket     int16
	step       int32
	parent     int32 // index into the same rank's spans, -1 for a root; set by link
	start, end int64 // ns since the recorder's epoch
}

func (s *span) dur() int64 { return s.end - s.start }

type rankTrace struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	step    atomic.Int32

	mu    sync.Mutex
	comms []*comm.Communicator // lane laneExchange+i
}

type recorder struct {
	epoch time.Time
	ranks []rankTrace
}

func newRecorder(ranks, spansPerRank int) *recorder {
	r := &recorder{epoch: time.Now(), ranks: make([]rankTrace, ranks)}
	for i := range r.ranks {
		r.ranks[i].spans = make([]span, spansPerRank)
		r.ranks[i].step.Store(-1) // before the first step: set-up
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records one finished span of the rank's current step.
func (rt *rankTrace) add(kind spanKind, lane uint8, bucket int, start, end int64) {
	rt.addAt(kind, lane, bucket, rt.step.Load(), start, end)
}

func (rt *rankTrace) addAt(kind spanKind, lane uint8, bucket int, step int32, start, end int64) {
	i := rt.n.Add(1) - 1
	if i >= int64(len(rt.spans)) {
		rt.dropped.Add(1)
		return
	}
	rt.spans[i] = span{kind: kind, lane: lane, bucket: int16(bucket), step: step, parent: -1, start: start, end: end}
}

// exchangeLane returns the track of the progress worker that serves c.
func (rt *rankTrace) exchangeLane(c *comm.Communicator) uint8 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, have := range rt.comms {
		if have == c {
			return uint8(laneExchange + i)
		}
	}
	rt.comms = append(rt.comms, c)
	return uint8(laneExchange + len(rt.comms) - 1)
}

func (rt *rankTrace) recorded() []span {
	n := rt.n.Load()
	if n > int64(len(rt.spans)) {
		n = int64(len(rt.spans))
	}
	return rt.spans[:n]
}

// link fills in every span's parent. Step spans are roots; encode, post and
// wait hang off their step; an exchange hangs off the post that launched it
// (or the step when the runtime posted it); a transport span hangs off the
// exchange of its rank that was open when it started. Two exchanges can be
// open at once under concurrency 2: the wire lane of a context and the
// exchange lane of its communicator are then matched by the pairs seen when
// only one exchange was open.
func (r *recorder) link() {
	for ri := range r.ranks {
		sp := r.ranks[ri].recorded()
		stepOf := map[int32]int32{}
		postOf := map[[2]int32]int32{}
		var exch []int32
		for i := range sp {
			switch sp[i].kind {
			case spStep:
				stepOf[sp[i].step] = int32(i)
			case spPost:
				postOf[[2]int32{sp[i].step, int32(sp[i].bucket)}] = int32(i)
			case spExchange:
				exch = append(exch, int32(i))
			}
		}
		sort.Slice(exch, func(a, b int) bool { return sp[exch[a]].start < sp[exch[b]].start })
		parentOf := func(i int32) int32 {
			if p, ok := stepOf[sp[i].step]; ok {
				return p
			}
			return -1
		}
		// open returns the exchanges whose interval holds t.
		open := func(t int64) []int32 {
			hi := sort.Search(len(exch), func(k int) bool { return sp[exch[k]].start > t })
			var out []int32
			for k := hi - 1; k >= 0 && k >= hi-8; k-- {
				if sp[exch[k]].end >= t {
					out = append(out, exch[k])
				}
			}
			return out
		}
		wireToExchange := map[uint8]uint8{} // context (wire lane &7) → exchange lane
		var undecided []int32
		for i := range sp {
			s := &sp[i]
			switch s.kind {
			case spStep:
			case spEncode, spPost, spWait, spSnapshot:
				s.parent = parentOf(int32(i))
			case spExchange:
				if p, ok := postOf[[2]int32{s.step, int32(s.bucket)}]; ok {
					s.parent = p
				} else {
					s.parent = parentOf(int32(i))
				}
			case spSend, spRecv:
				switch cands := open(s.start); len(cands) {
				case 0:
					s.parent = parentOf(int32(i))
				case 1:
					s.parent = cands[0]
					wireToExchange[s.lane&7] = sp[cands[0]].lane
				default:
					undecided = append(undecided, int32(i))
				}
			}
		}
		for _, i := range undecided {
			s := &sp[i]
			cands := open(s.start)
			s.parent = cands[0]
			if lane, ok := wireToExchange[s.lane&7]; ok {
				for _, c := range cands {
					if sp[c].lane == lane {
						s.parent = c
					}
				}
			}
		}
	}
}

// covered returns how much of [lo, hi] the given intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// stepBreakdown is one rank's per-step reduction of the spans, in ms.
type stepBreakdown struct {
	encode, exchange, exchangeSelf, wait, send, recv []float64
	postUs                                           []float64
}

// reduce turns rank's linked spans into per-step layer times, skipping steps
// before firstStep (warm-up). A layer's self time is its span minus the part
// of that interval its child spans cover.
func (r *recorder) reduce(rank int, firstStep int32) stepBreakdown {
	sp := r.ranks[rank].recorded()
	children := map[int32][][2]int64{}
	for i := range sp {
		if p := sp[i].parent; p >= 0 && sp[p].kind == spExchange {
			children[p] = append(children[p], [2]int64{sp[i].start, sp[i].end})
		}
	}
	type acc struct{ enc, exch, self, wait, send, recv int64 }
	steps := map[int32]*acc{}
	var order []int32
	var out stepBreakdown
	for i := range sp {
		s := &sp[i]
		if s.step < firstStep {
			continue
		}
		a := steps[s.step]
		if a == nil {
			a = &acc{}
			steps[s.step] = a
			order = append(order, s.step)
		}
		switch s.kind {
		case spEncode:
			a.enc += s.dur()
		case spExchange:
			a.exch += s.dur()
			a.self += s.dur() - covered(children[int32(i)], s.start, s.end)
		case spWait:
			a.wait += s.dur()
		case spSend:
			a.send += s.dur()
		case spRecv:
			a.recv += s.dur()
		case spPost:
			out.postUs = append(out.postUs, float64(s.dur())/1e3)
		}
	}
	for _, st := range order {
		a := steps[st]
		out.encode = append(out.encode, float64(a.enc)/1e6)
		out.exchange = append(out.exchange, float64(a.exch)/1e6)
		out.exchangeSelf = append(out.exchangeSelf, float64(a.self)/1e6)
		out.wait = append(out.wait, float64(a.wait)/1e6)
		out.send = append(out.send, float64(a.send)/1e6)
		out.recv = append(out.recv, float64(a.recv)/1e6)
	}
	return out
}

// wellFormed checks the invariants the smoke test pins: every span ends
// after it starts, every parent index is valid and starts no later than its
// child, and exchange self time is never negative.
func (r *recorder) wellFormed() error {
	for ri := range r.ranks {
		if d := r.ranks[ri].dropped.Load(); d > 0 {
			return fmt.Errorf("rank %d dropped %d spans: the trace buffer is too small", ri, d)
		}
		sp := r.ranks[ri].recorded()
		for i := range sp {
			s := &sp[i]
			if s.end < s.start {
				return fmt.Errorf("rank %d span %d (%s) ends before it starts", ri, i, spanNames[s.kind])
			}
			if s.parent >= int32(len(sp)) || s.parent == int32(i) {
				return fmt.Errorf("rank %d span %d (%s) has parent %d", ri, i, spanNames[s.kind], s.parent)
			}
			if s.parent >= 0 && sp[s.parent].start > s.start {
				return fmt.Errorf("rank %d span %d (%s) starts before its parent %s", ri, i, spanNames[s.kind], spanNames[sp[s.parent].kind])
			}
		}
		for _, v := range r.reduce(ri, 0).exchangeSelf {
			if v < 0 {
				return fmt.Errorf("rank %d: negative exchange self time %g ms", ri, v)
			}
		}
	}
	return nil
}

func laneName(l uint8) string {
	switch {
	case l == laneMain:
		return "rank goroutine"
	case l >= laneRecv:
		return fmt.Sprintf("wire recv ctx%d", l-laneRecv)
	case l >= laneSend:
		return fmt.Sprintf("wire send ctx%d", l-laneSend)
	default:
		return fmt.Sprintf("progress worker %d", l-laneExchange)
	}
}

// writeChrome writes the spans as Chrome/Perfetto trace-event JSON: one
// process per rank, one thread per lane.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for ri := range r.ranks {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: ri, Args: map[string]any{"name": fmt.Sprintf("rank %d", ri)}})
		lanes := map[uint8]bool{}
		for i, s := range r.ranks[ri].recorded() {
			if !lanes[s.lane] {
				lanes[s.lane] = true
				events = append(events, event{Name: "thread_name", Ph: "M", Pid: ri, Tid: int(s.lane), Args: map[string]any{"name": laneName(s.lane)}})
			}
			name := spanNames[s.kind]
			if s.bucket >= 0 {
				name = fmt.Sprintf("%s[%d]", name, s.bucket)
			}
			events = append(events, event{
				Name: name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: ri, Tid: int(s.lane),
				Args: map[string]any{"id": i, "parent": s.parent, "step": s.step, "bucket": s.bucket},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
