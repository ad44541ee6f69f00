package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kEngineNew spanKind = iota
	kSessionStep
	kClusterStep
	kSchedPlan
	kCacheVictim
	kCacheTouch
	kCacheAdmit
	kCacheForget
	kCacheObserve
	kPrefetchSelect
	kReqschedNext
	kRouterPick
	kAdmission
	numKinds
)

var kindNames = [numKinds]string{
	"engine.new", "session.step", "cluster.step", "sched.plan",
	"cache.victim", "cache.touch", "cache.admit", "cache.forget", "cache.observe_scores",
	"prefetch.select", "reqsched.next", "cluster.pick", "engine.admission",
}

// spanRef addresses a span as track<<32 | index; noSpan marks a root.
type spanRef int64

const noSpan spanRef = -1

func mkRef(track, idx int32) spanRef { return spanRef(int64(track)<<32 | int64(idx)) }

func (r spanRef) track() int32 { return int32(r >> 32) }
func (r spanRef) index() int32 { return int32(r & 0xffffffff) }

// span is one timed call across a layer boundary. Times are host
// nanoseconds since the tracer's origin.
type span struct {
	start, end int64
	parent     spanRef
	req        int32 // request ID, -1 when the call serves no single request
	kind       spanKind
}

// tracer keeps every span of one traced run in memory. Spans live on
// tracks: one per engine (an engine never steps on two goroutines at
// once, so its track needs no lock), a main track for the calls the
// benchmark makes itself (engine construction, session and cluster
// steps, router and admission calls, which all run on the driving
// goroutine), and a locked shared track for leaf calls whose engine the
// benchmark cannot tell (request-scheduler picks).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	tracks []*track
	main   *track
	shared *track
	// ambient is the innermost open span on the main track. A span on
	// an engine track with nothing open on its own track is a child of
	// it: plugin calls made inside Cluster.Step on worker goroutines
	// nest under that step.
	ambient atomic.Int64
}

func newTracer() *tracer {
	tr := &tracer{origin: time.Now()}
	tr.ambient.Store(int64(noSpan))
	tr.main = tr.newTrack()
	tr.shared = tr.newTrack()
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// newTrack adds a span track. Tracks are created on the driving
// goroutine, before the calls they record can run anywhere else.
func (tr *tracer) newTrack() *track {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &track{tr: tr, id: int32(len(tr.tracks))}
	tr.tracks = append(tr.tracks, t)
	return t
}

// track is an append-only span buffer with a stack of open spans.
type track struct {
	tr    *tracer
	id    int32
	spans []span
	stack []int32
}

// begin opens a span and returns its index on the track.
func (t *track) begin(k spanKind, req int32) int32 {
	parent := spanRef(t.tr.ambient.Load())
	if n := len(t.stack); n > 0 {
		parent = mkRef(t.id, t.stack[n-1])
	}
	if t == t.tr.shared {
		t.tr.mu.Lock()
	}
	t.spans = append(t.spans, span{start: t.tr.now(), end: -1, parent: parent, req: req, kind: k})
	i := int32(len(t.spans) - 1)
	if t == t.tr.shared {
		t.tr.mu.Unlock()
		return i
	}
	t.stack = append(t.stack, i)
	if t == t.tr.main {
		t.tr.ambient.Store(int64(mkRef(t.id, i)))
	}
	return i
}

// end closes span i, which must be the innermost open span of the
// track (the shared track keeps no stack: its spans have no children).
func (t *track) end(i int32) {
	if t == t.tr.shared {
		t.tr.mu.Lock()
		t.spans[i].end = t.tr.now()
		t.tr.mu.Unlock()
		return
	}
	t.spans[i].end = t.tr.now()
	t.stack = t.stack[:len(t.stack)-1]
	if t == t.tr.main {
		top := noSpan
		if n := len(t.stack); n > 0 {
			top = mkRef(t.id, t.stack[n-1])
		}
		t.tr.ambient.Store(int64(top))
	}
}

// setReq stamps the request a span served, for spans that learn it only
// when the call returns (session and cluster steps).
func (t *track) setReq(i int32, req int) { t.spans[i].req = int32(req) }

// kindStats aggregates the spans of one kind.
type kindStats struct {
	calls int
	// totalNs is the summed duration; selfNs subtracts, per span, the
	// part of its interval covered by its children.
	totalNs, selfNs int64
	durs            []int64
}

// summarize computes per-kind counts, durations and self times. Call it
// after every span has closed.
func (tr *tracer) summarize() [numKinds]kindStats {
	type child struct {
		parent     spanRef
		start, end int64
	}
	var out [numKinds]kindStats
	var kids []child
	for _, t := range tr.tracks {
		for _, s := range t.spans {
			ks := &out[s.kind]
			d := s.end - s.start
			ks.calls++
			ks.totalNs += d
			ks.selfNs += d
			ks.durs = append(ks.durs, d)
			if s.parent != noSpan {
				kids = append(kids, child{s.parent, s.start, s.end})
			}
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].parent != kids[j].parent {
			return kids[i].parent < kids[j].parent
		}
		return kids[i].start < kids[j].start
	})
	for i := 0; i < len(kids); {
		j := i
		for j < len(kids) && kids[j].parent == kids[i].parent {
			j++
		}
		p := tr.tracks[kids[i].parent.track()].spans[kids[i].parent.index()]
		covered := int64(0)
		lo, hi := int64(-1), int64(-1)
		for _, c := range kids[i:j] {
			s, e := max(c.start, p.start), min(c.end, p.end)
			if e <= s {
				continue
			}
			if s > hi {
				covered += hi - lo
				lo, hi = s, e
				continue
			}
			hi = max(hi, e)
		}
		covered += hi - lo
		out[p.kind].selfNs -= covered
		i = j
	}
	return out
}

// spanCount reports how many spans the tracer holds.
func (tr *tracer) spanCount() int {
	n := 0
	for _, t := range tr.tracks {
		n += len(t.spans)
	}
	return n
}

// writeChrome writes every span as a Chrome trace-event "complete"
// event (chrome://tracing, Perfetto): one thread per track, the parent
// and request ID in args.
func (tr *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tr.tracks {
		for _, s := range t.spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			parent := "-"
			if s.parent != noSpan {
				parent = fmt.Sprintf("%d:%d", s.parent.track(), s.parent.index())
			}
			fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%q,\"req\":%d}}",
				kindNames[s.kind], t.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3, parent, s.req)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
