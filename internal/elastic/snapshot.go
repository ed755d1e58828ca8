package elastic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"a2sgd/internal/cluster"
	"a2sgd/internal/compress"
)

// Snapshot file format "A2SV" version 1 (little endian):
//
//	u32 magic "A2SV" | u32 version
//	str family | u64 seed | u32 epochs | u32 stepsPerEpoch | u32 step
//	u32 world | u32 numParams
//	u32 nBounds | nBounds × u32
//	u32 nHistory | nHistory × (u32 epoch, f64 loss, f64 evalLoss, f64 metric, f64 lr)
//	u32 nWorkers | per worker:
//	    u32 rank | f32s params | f32s modelState | f32s velocity
//	    4 × u64 rng | f64 lossSum
//	    u32 nBuckets | per bucket:
//	        str alg
//	        u32 nVecs  | nVecs  × (str key, f32s values)   -- keys sorted
//	        u32 nWords | nWords × (str key, u32 n, n × u64) -- keys sorted
//	u32 crc32(IEEE) of everything above
//
// str is u32 length + raw bytes; f32s is u32 length + IEEE-754 bits. Map keys
// are written sorted so identical states serialize to identical bytes (the
// basis of the bitwise round-trip tests). The trailing CRC covers the entire
// stream, so truncation and corruption both fail loudly at read time.
const (
	snapMagic   uint32 = 0x41325356 // "A2SV"
	snapVersion uint32 = 1
)

// Sanity bounds applied while reading. A length field is only ever a bound:
// every slice, string and map grows as the bytes behind it arrive, from a
// preallocation of at most snapPrealloc entries, so a corrupt or hostile
// length fails as a truncated snapshot after costing about what the input
// itself holds — never the allocation the field claims.
const (
	maxSnapStr   = 1 << 16
	maxSnapCount = 1 << 24
	maxSnapElems = 1 << 30
	snapPrealloc = 1 << 10
)

var snapTable = crc32.MakeTable(crc32.IEEE)

// snapWriter accumulates the stream CRC alongside the buffered writes.
type snapWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

func (sw *snapWriter) bytes(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, snapTable, p)
	_, sw.err = sw.w.Write(p)
}

func (sw *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(sw.buf[:4], v)
	sw.bytes(sw.buf[:4])
}

func (sw *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], v)
	sw.bytes(sw.buf[:8])
}

func (sw *snapWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

func (sw *snapWriter) str(s string) {
	sw.u32(uint32(len(s)))
	sw.bytes([]byte(s))
}

func (sw *snapWriter) f32s(v []float32) {
	sw.u32(uint32(len(v)))
	var chunk [4096]byte
	for len(v) > 0 {
		n := len(v)
		if n > len(chunk)/4 {
			n = len(chunk) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[4*i:], math.Float32bits(v[i]))
		}
		sw.bytes(chunk[:4*n])
		v = v[n:]
	}
}

// snapReader mirrors snapWriter, accumulating the CRC of everything read.
type snapReader struct {
	r     *bufio.Reader
	crc   uint32
	err   error
	buf   [8]byte
	chunk [4096]byte // readVec's window
}

func (sr *snapReader) fail(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf("elastic: "+format, args...)
	}
}

func (sr *snapReader) bytes(p []byte) {
	if sr.err != nil {
		return
	}
	if _, err := io.ReadFull(sr.r, p); err != nil {
		// Any end of input inside the stream is unexpected.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		sr.fail("truncated snapshot: %w", err)
		return
	}
	sr.crc = crc32.Update(sr.crc, snapTable, p)
}

func (sr *snapReader) u32() uint32 {
	sr.bytes(sr.buf[:4])
	if sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(sr.buf[:4])
}

func (sr *snapReader) u64() uint64 {
	sr.bytes(sr.buf[:8])
	if sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(sr.buf[:8])
}

func (sr *snapReader) f64() float64 { return math.Float64frombits(sr.u64()) }

// count reads a u32 length field and bounds-checks it.
func (sr *snapReader) count(max int, what string) int {
	n := int(sr.u32())
	if sr.err != nil {
		return 0
	}
	if n < 0 || n > max {
		sr.fail("snapshot %s count %d out of range [0, %d]", what, n, max)
		return 0
	}
	return n
}

// readVec reads a u32 count (at most max) and that many size-byte items,
// decoded by dec. It reads through the chunk buffer and grows the result as
// the items arrive, so a count the input does not back costs nothing.
func readVec[T any](sr *snapReader, max int, what string, size int, dec func([]byte) T) []T {
	n := sr.count(max, what)
	if sr.err != nil || n == 0 {
		return nil
	}
	v := make([]T, 0, min(n, snapPrealloc))
	for len(v) < n && sr.err == nil {
		p := sr.chunk[:size*min(n-len(v), len(sr.chunk)/size)]
		sr.bytes(p)
		for i := 0; sr.err == nil && i < len(p); i += size {
			v = append(v, dec(p[i:]))
		}
	}
	if sr.err != nil {
		return nil
	}
	return slices.Clip(v)
}

func (sr *snapReader) str() string {
	return string(readVec(sr, maxSnapStr, "string", 1, func(p []byte) byte { return p[0] }))
}

func (sr *snapReader) f32s() []float32 {
	return readVec(sr, maxSnapElems, "vector", 4, func(p []byte) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(p))
	})
}

// key reads a map key, which the writer emits in strictly increasing order:
// an out-of-order or repeated key is not a snapshot this package wrote.
func (sr *snapReader) key(prev string, first bool) string {
	k := sr.str()
	if sr.err == nil && !first && k <= prev {
		sr.fail("snapshot state key %q after %q: keys must be strictly increasing", k, prev)
	}
	return k
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeState(sw *snapWriter, s compress.State) {
	sw.str(s.Alg)
	sw.u32(uint32(len(s.Vecs)))
	for _, k := range sortedKeys(s.Vecs) {
		sw.str(k)
		sw.f32s(s.Vecs[k])
	}
	sw.u32(uint32(len(s.Words)))
	for _, k := range sortedKeys(s.Words) {
		sw.str(k)
		w := s.Words[k]
		sw.u32(uint32(len(w)))
		for _, x := range w {
			sw.u64(x)
		}
	}
}

func readState(sr *snapReader) compress.State {
	var s compress.State
	s.Alg = sr.str()
	if nv := sr.count(maxSnapCount, "state vec"); nv > 0 {
		s.Vecs = make(map[string][]float32, min(nv, snapPrealloc))
		for i, k := 0, ""; i < nv && sr.err == nil; i++ {
			k = sr.key(k, i == 0)
			s.Vecs[k] = sr.f32s()
		}
	}
	if nw := sr.count(maxSnapCount, "state word"); nw > 0 {
		s.Words = make(map[string][]uint64, min(nw, snapPrealloc))
		for i, k := 0, ""; i < nw && sr.err == nil; i++ {
			k = sr.key(k, i == 0)
			s.Words[k] = readVec(sr, maxSnapElems, "state word blob", 8, binary.LittleEndian.Uint64)
		}
	}
	return s
}

// WriteSnapshot serializes a full-state training snapshot in the versioned
// A2SV format with a trailing CRC. Identical snapshots serialize to identical
// bytes.
func WriteSnapshot(w io.Writer, rs *cluster.RunState) error {
	if rs == nil {
		return fmt.Errorf("elastic: nil snapshot")
	}
	sw := &snapWriter{w: bufio.NewWriter(w)}
	sw.u32(snapMagic)
	sw.u32(snapVersion)
	sw.str(rs.Family)
	sw.u64(rs.Seed)
	sw.u32(uint32(rs.Epochs))
	sw.u32(uint32(rs.StepsPerEpoch))
	sw.u32(uint32(rs.Step))
	sw.u32(uint32(rs.World))
	sw.u32(uint32(rs.NumParams))
	sw.u32(uint32(len(rs.Bounds)))
	for _, b := range rs.Bounds {
		sw.u32(uint32(b))
	}
	sw.u32(uint32(len(rs.History)))
	for _, h := range rs.History {
		sw.u32(uint32(h.Epoch))
		sw.f64(h.Loss)
		sw.f64(h.EvalLoss)
		sw.f64(h.Metric)
		sw.f64(h.LR)
	}
	sw.u32(uint32(len(rs.Workers)))
	for _, ws := range rs.Workers {
		if ws == nil {
			return fmt.Errorf("elastic: snapshot has a nil worker entry")
		}
		sw.u32(uint32(ws.Rank))
		sw.f32s(ws.Params)
		sw.f32s(ws.ModelState)
		sw.f32s(ws.Velocity)
		for _, x := range ws.SampleRNG {
			sw.u64(x)
		}
		sw.f64(ws.LossSum)
		sw.u32(uint32(len(ws.Buckets)))
		for _, s := range ws.Buckets {
			writeState(sw, s)
		}
	}
	// The CRC trailer is written raw — it covers everything before it.
	crc := sw.crc
	if sw.err == nil {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], crc)
		_, sw.err = sw.w.Write(buf[:])
	}
	if sw.err != nil {
		return fmt.Errorf("elastic: write snapshot: %w", sw.err)
	}
	return sw.w.Flush()
}

// ReadSnapshot parses an A2SV snapshot, validating the magic, version and
// trailing CRC. The stream must end at the CRC: anything after it is not
// part of a snapshot this package wrote.
func ReadSnapshot(r io.Reader) (*cluster.RunState, error) {
	sr := &snapReader{r: bufio.NewReader(r)}
	if m := sr.u32(); sr.err == nil && m != snapMagic {
		return nil, fmt.Errorf("elastic: bad snapshot magic %#x (want %#x)", m, snapMagic)
	}
	if v := sr.u32(); sr.err == nil && v != snapVersion {
		return nil, fmt.Errorf("elastic: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	rs := &cluster.RunState{}
	rs.Family = sr.str()
	rs.Seed = sr.u64()
	rs.Epochs = int(sr.u32())
	rs.StepsPerEpoch = int(sr.u32())
	rs.Step = int(sr.u32())
	rs.World = int(sr.u32())
	rs.NumParams = int(sr.u32())
	rs.Bounds = readVec(sr, maxSnapCount, "bounds", 4, func(p []byte) int { return int(binary.LittleEndian.Uint32(p)) })
	rs.History = readVec(sr, maxSnapCount, "history", 36, func(p []byte) cluster.EpochStats {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p[i:])) }
		return cluster.EpochStats{Epoch: int(binary.LittleEndian.Uint32(p)), Loss: f(4), EvalLoss: f(12), Metric: f(20), LR: f(28)}
	})
	nw := sr.count(maxSnapCount, "worker")
	rs.Workers = make([]*cluster.WorkerState, 0, min(nw, snapPrealloc))
	for i := 0; i < nw && sr.err == nil; i++ {
		ws := &cluster.WorkerState{}
		ws.Rank = int(sr.u32())
		ws.Params = sr.f32s()
		ws.ModelState = sr.f32s()
		ws.Velocity = sr.f32s()
		for j := range ws.SampleRNG {
			ws.SampleRNG[j] = sr.u64()
		}
		ws.LossSum = sr.f64()
		if nbk := sr.count(maxSnapCount, "bucket"); nbk > 0 {
			ws.Buckets = make([]compress.State, 0, min(nbk, snapPrealloc))
			for b := 0; b < nbk && sr.err == nil; b++ {
				ws.Buckets = append(ws.Buckets, readState(sr))
			}
		}
		rs.Workers = append(rs.Workers, ws)
	}
	if sr.err != nil {
		return nil, sr.err
	}
	// The stored CRC is read raw (it is not part of its own coverage).
	want := sr.crc
	var buf [4]byte
	if _, err := io.ReadFull(sr.r, buf[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("elastic: truncated snapshot: missing CRC trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return nil, fmt.Errorf("elastic: snapshot CRC mismatch: stored %#x, computed %#x", got, want)
	}
	if _, err := sr.r.ReadByte(); err == nil {
		return nil, fmt.Errorf("elastic: trailing data after the snapshot CRC")
	} else if err != io.EOF {
		return nil, fmt.Errorf("elastic: read snapshot: %w", err)
	}
	if rs.World != len(rs.Workers) {
		return nil, fmt.Errorf("elastic: snapshot world %d != %d worker entries", rs.World, len(rs.Workers))
	}
	return rs, nil
}

// WriteSnapshotFile atomically persists a snapshot: it writes to a temporary
// sibling and renames it into place, so a crash mid-write never clobbers the
// previous good snapshot.
func WriteSnapshotFile(path string, rs *cluster.RunState) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, rs); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadSnapshotFile loads a snapshot persisted by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*cluster.RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
