package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oarsmt/internal/ckpt"
	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
)

// Key is the content address of a stored route: the augmentation-normalized
// canonical layout hash computed by internal/serve. Two layouts share a key
// exactly when one is an augmentation of the other.
type Key [32]byte

// Fingerprint identifies the selector model a record was routed with: the
// SHA-256 over the network's weights in canonical Params() order
// (selector.Fingerprint). A store opened under a different fingerprint
// drops every stored record, so a retrained model can never serve a stale
// route.
type Fingerprint [32]byte

// Record is one routed layout in its canonical orientation. Coordinates
// rather than vertex IDs are stored, so a record can be replayed into any
// of the 16 symmetric request orientations without keeping the canonical
// graph alive. Records handed out by Get are shared and must be treated as
// read-only.
type Record struct {
	Key         Key
	H, V, M     int        // canonical grid dimensions
	Root        grid.Coord // tree root, canonical space
	Edges       [][2]grid.Coord
	Steiner     []grid.Coord // irredundant Steiner points kept in the tree
	UsedSteiner bool
	Proposed    int // Steiner points the selector proposed
	Cost        float64

	loaded bool // read from a segment at Open
}

// Loaded reports whether the record was read from a segment when the store
// was opened, rather than admitted by Put since.
func (r *Record) Loaded() bool { return r.loaded }

// Segment payload layout (wrapped in an internal/ckpt frame, which carries
// the magic, version, length and SHA-256 trailer):
//
//	segMagic    "OARSMTSG"       (8 bytes)
//	segVersion  uint32 LE        (currently 1)
//	fingerprint [32]byte         (selector weight hash of every record)
//	count       uint64 LE        (record count)
//	records     count x record
//
// One record, all integers little-endian:
//
//	key       [32]byte
//	h, v, m   uint32
//	root      3 x int32
//	cost      float64 bits
//	flags     uint8 (bit 0: usedSteiner)
//	proposed  uint32
//	nEdges    uint32, then nEdges x 6 x int32
//	nSteiner  uint32, then nSteiner x 3 x int32
//
// The encoding is deterministic: segments written from the same records in
// the same order are bit-identical, which keeps compaction reproducible.
const (
	segMagic      = "OARSMTSG"
	segVersion    = 1
	segHeaderSize = len(segMagic) + 4 + 32 + 8
	recFixedSize  = 32 + 3*4 + 3*4 + 8 + 1 + 4 + 4 + 4 // everything but the coord arrays
	edgeSize      = 6 * 4
	coordSize     = 3 * 4
	// maxDim bounds a decoded grid dimension; far above any routable
	// layout, low enough that a corrupt length cannot drive allocation.
	maxDim = 1 << 20
)

// Sentinel errors of the package.
var (
	// ErrCorruptSegment reports a segment whose payload failed structural
	// validation (the frame around it is checked separately by
	// internal/ckpt and fails with ckpt.ErrCorrupt). Open degrades both to
	// a skipped segment, never a wrong route.
	ErrCorruptSegment = errors.New("store: corrupt segment")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
)

// appendRecord serialises one record.
func appendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, r.Key[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.H))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.V))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.M))
	buf = appendCoord(buf, r.Root)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Cost))
	var flags byte
	if r.UsedSteiner {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Proposed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Edges)))
	for _, e := range r.Edges {
		buf = appendCoord(buf, e[0])
		buf = appendCoord(buf, e[1])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Steiner)))
	for _, c := range r.Steiner {
		buf = appendCoord(buf, c)
	}
	return buf
}

func appendCoord(buf []byte, c grid.Coord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.H)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.V)))
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(c.M)))
}

// encodeSegment serialises the records (in the given order) into a segment
// payload ready for ckpt framing.
func encodeSegment(fp Fingerprint, recs []*Record) []byte {
	n := segHeaderSize
	for _, r := range recs {
		n += recFixedSize + len(r.Edges)*edgeSize + len(r.Steiner)*coordSize
	}
	buf := make([]byte, 0, n)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = append(buf, fp[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// segReader is a bounds-checked cursor over a segment payload.
type segReader struct {
	buf []byte
	off int
	err error
}

func (d *segReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptSegment}, args...)...)
	}
}

func (d *segReader) remaining() int { return len(d.buf) - d.off }

func (d *segReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *segReader) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *segReader) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *segReader) coord() grid.Coord {
	return grid.Coord{H: int(int32(d.u32())), V: int(int32(d.u32())), M: int(int32(d.u32()))}
}

// decodeSegment parses a segment payload. Any structural problem — bad
// magic, truncation, implausible counts or dimensions — yields an error
// matching ErrCorruptSegment; the decoder never panics and never allocates
// more than the payload length justifies, which FuzzSegmentDecode pins.
func decodeSegment(payload []byte) (Fingerprint, []*Record, error) {
	var fp Fingerprint
	d := &segReader{buf: payload}
	if m := d.bytes(len(segMagic)); m != nil && string(m) != segMagic {
		return fp, nil, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if v := d.u32(); d.err == nil && v != segVersion {
		return fp, nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptSegment, v, segVersion)
	}
	if b := d.bytes(32); b != nil {
		copy(fp[:], b)
	}
	count := d.u64()
	if d.err != nil {
		return fp, nil, d.err
	}
	if count > uint64(d.remaining()/recFixedSize) {
		return fp, nil, fmt.Errorf("%w: implausible record count %d for %d payload bytes",
			ErrCorruptSegment, count, d.remaining())
	}
	recs := make([]*Record, 0, count)
	for i := uint64(0); i < count; i++ {
		r, err := decodeRecord(d)
		if err != nil {
			return fp, nil, err
		}
		recs = append(recs, r)
	}
	if d.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSegment, d.remaining())
	}
	return fp, recs, nil
}

func decodeRecord(d *segReader) (*Record, error) {
	r := &Record{}
	if b := d.bytes(32); b != nil {
		copy(r.Key[:], b)
	}
	r.H, r.V, r.M = int(d.u32()), int(d.u32()), int(d.u32())
	r.Root = d.coord()
	r.Cost = math.Float64frombits(d.u64())
	if b := d.bytes(1); b != nil {
		if b[0]&^1 != 0 {
			return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorruptSegment, b[0])
		}
		r.UsedSteiner = b[0]&1 != 0
	}
	r.Proposed = int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if r.H <= 0 || r.V <= 0 || r.M <= 0 || r.H > maxDim || r.V > maxDim || r.M > maxDim {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%dx%d", ErrCorruptSegment, r.H, r.V, r.M)
	}
	nEdges := d.u32()
	if d.err == nil && int(nEdges) > d.remaining()/edgeSize {
		return nil, fmt.Errorf("%w: implausible edge count %d", ErrCorruptSegment, nEdges)
	}
	if d.err == nil {
		r.Edges = make([][2]grid.Coord, nEdges)
		for i := range r.Edges {
			r.Edges[i] = [2]grid.Coord{d.coord(), d.coord()}
		}
	}
	nSteiner := d.u32()
	if d.err == nil && int(nSteiner) > d.remaining()/coordSize {
		return nil, fmt.Errorf("%w: implausible Steiner count %d", ErrCorruptSegment, nSteiner)
	}
	if d.err == nil {
		r.Steiner = make([]grid.Coord, nSteiner)
		for i := range r.Steiner {
			r.Steiner[i] = d.coord()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// segName returns the file name of segment sequence number seq.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.seg", seq) }

// segEntry names one segment file of a directory.
type segEntry struct {
	seq  int
	path string
}

// listSegments returns the segments of dir by ascending sequence number,
// ignoring anything not matching the seg-NNNNNNNN.seg pattern (including
// leftover *.tmp files from a crashed write). A missing directory lists
// empty.
func listSegments(dir string) ([]segEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []segEntry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		var seq int
		if n, err := fmt.Sscanf(de.Name(), "seg-%d.seg", &seq); n != 1 || err != nil {
			continue
		}
		if de.Name() != segName(seq) {
			continue
		}
		out = append(out, segEntry{seq: seq, path: filepath.Join(dir, de.Name())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// writeSegmentFile atomically lands the payload as segment seq in dir,
// reusing the internal/ckpt frame and write discipline: ckpt framing
// (magic+version+length+SHA-256 trailer) into a temp file, fsync, close,
// rename onto the final name, directory fsync. A crash at any instruction
// leaves at worst a stale *.tmp that listSegments ignores.
//
// Fault point `store.write`: Error aborts before the rename (a clean
// crash), Partial renames a frame truncated mid-payload onto the final
// name (a torn write) so recovery paths can be exercised deterministically,
// and Delay stalls the write (a slow disk) before landing it intact.
func writeSegmentFile(dir string, seq int, payload []byte) (string, error) {
	final := filepath.Join(dir, segName(seq))
	tmp := final + ".tmp"

	frame := make([]byte, 0, len(payload)+64)
	w := (*sliceWriter)(&frame)
	if err := ckpt.Encode(w, payload); err != nil {
		return "", err
	}
	data := frame
	torn := false
	if v := fault.Check("store.write"); v.Mode != fault.Off {
		switch v.Mode {
		case fault.Partial:
			data = data[:len(data)/2]
			torn = true
		case fault.Delay:
			time.Sleep(v.Delay)
		default:
			return "", fmt.Errorf("store: write %s: %w", final, v.Err)
		}
	}

	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(dir)
	if torn {
		return "", fmt.Errorf("%w: store: write %s: injected torn write", fault.ErrInjected, final)
	}
	return final, nil
}

// sliceWriter appends to the underlying slice; io.Writer over a
// preallocated buffer without bytes.Buffer's extra copy.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// readSegmentFile loads and ckpt-validates one segment file's payload.
func readSegmentFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ckpt.Decode(f)
}

// syncDir fsyncs the directory so a rename is durable; best effort, since
// not every filesystem supports directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
