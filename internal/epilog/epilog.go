// Package epilog persists conflict episodes in an append-only,
// crash-safe log so "what happened over months" outlives the kernel's
// in-RAM registry. The log is a directory of segment files, each a
// `MEPL` container (magic + uvarint version, then length-prefixed
// records over internal/binenc — the same framing discipline as the
// MSNP/MCKP/MTRU codecs). Writers append lifecycle-shaped records: an
// open record (re)states a still-running activation after each
// lifecycle event, a closed record seals it; every record carries the
// kernel's per-prefix event Seq. Reads fold the records: closed records
// deduplicate by (prefix, seq) — kill/recover re-emission is
// byte-identical, so duplicates collapse — and at most one open episode
// survives per prefix, the max-seq open record, live only while its seq
// exceeds every closed seq for that prefix. The fold is
// order-insensitive, which is what makes crash-duplicated appends and
// interrupted compactions harmless.
//
// Durability model: each Append call encodes its records into one
// buffer and hands it to the active segment file in one write, with no
// user-space buffering across calls, so a killed process loses nothing
// Append returned for: its bytes reached the page cache first. A call
// is all-or-nothing on disk — a failed or torn write is truncated back
// to the size before the call, and the call's records wait in the
// pending queue (below). fsync happens only on rotation and Close. A
// machine crash can tear the active segment's tail — Open repairs it
// by truncating at the last whole record — and anything torn away is
// re-emitted (identically) by the checkpoint-resume path and folded
// back in by seq dedup.
//
// Degradation model: a write failure (full disk, dying device) does
// not latch the log dead. The log enters a degraded mode: episodes are
// buffered in a bounded in-memory pending queue (still visible to
// Query, so reads stay truthful), any torn bytes the failed write left
// behind are truncated away before the next disk write, and subsequent
// appends retry durability with a doubling append-count backoff. When
// the disk heals the pending queue is flushed in order and the log
// un-degrades; if the queue overflows first, the overflow is counted
// in Health().Lost — a permanent, reported history hole, never silent
// corruption. All filesystem access goes through internal/vfs so the
// chaos oracle can prove this under injected fault schedules.
package epilog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/core"
	"moas/internal/vfs"
)

// Episode is one conflict activation as recorded in the log: the record
// the kernel reports, declared once in core.
type Episode = core.Episode

// Segment container: magic, uvarint version, then one length-prefixed
// frame per record. Record payload: flags byte, prefix, uvarint seq,
// origin count + ascending origin uvarints, class byte, start and end
// uvarints.
const (
	magic   = "MEPL"
	version = 1

	recOpen = 1 << 0 // flags: episode still open as of the record
)

// headerLen is the encoded size of the segment header (magic plus the
// single-byte uvarint the current version encodes to).
const headerLen = len(magic) + 1

// PersistentDays is the duration at which Summary counts an episode as
// long-lived/operational (anycast, multi-homing) rather than transient —
// the persistence split of "Live Long and Prosper".
const PersistentDays = 30

// Defaults for Options fields left zero.
const (
	DefaultRotateBytes  = 4 << 20
	DefaultCompactEvery = 8
	DefaultMaxPending   = 4096
)

// maxRetryGap caps the degraded-mode retry backoff: at worst one disk
// retry every maxRetryGap appends.
const maxRetryGap = 256

var (
	// ErrClosed reports an operation on a closed Log.
	ErrClosed = errors.New("epilog: log closed")

	errVersion = errors.New("epilog: unsupported segment version")
)

// Options parameterizes a Log.
type Options struct {
	// RotateBytes seals the active segment and starts a fresh one once
	// it reaches this many bytes; the check follows each write, so a
	// segment overruns it by at most one write: one Append call's
	// records, or the pending queue a heal flushes. 0 means
	// DefaultRotateBytes.
	RotateBytes int
	// CompactEvery triggers a compaction pass whenever a rotation
	// leaves at least this many sealed segments. 0 means
	// DefaultCompactEvery; negative disables compaction.
	CompactEvery int
	// FS is the filesystem the log writes through. Nil means the real
	// disk; tests and the chaos oracle inject a vfs.Faulty.
	FS vfs.FS
	// MaxPending bounds the in-memory episode queue held while the log
	// is degraded. Overflow drops the newest episodes and counts them
	// in Health().Lost. 0 means DefaultMaxPending.
	MaxPending int
}

// Log is the append-only episode log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	opts Options
	fs   vfs.FS
	dir  string
	f    vfs.File // active segment; nil after Close or a failed rotation
	seq  uint64   // active segment sequence
	size int64    // active segment durable bytes
	seal []uint64 // sealed segment sequences, ascending

	closed bool

	// Degraded-mode state. degraded flips on the first durability
	// failure and clears when a retry flushes the pending queue.
	degraded  bool
	degErr    error     // most recent durability failure
	dirty     bool      // active segment may carry torn bytes past size
	pending   []Episode // episodes awaiting durability, oldest first
	lost      uint64    // episodes dropped on pending overflow
	retries   uint64    // durability retry attempts while degraded
	healedCnt uint64    // degraded -> healthy transitions
	retryGap  int       // appends to skip before the next retry
	retrySkip int       // remaining skips

	payload []byte // record scratch, reused across appends
	frame   []byte // one write's framed records, reused across appends

	appended    uint64
	truncated   int64 // torn-tail bytes dropped by Open
	compactions int
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%010d.mepl", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".mepl") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-5], 10, 64)
	return n, err == nil && segName(n) == name
}

func (l *Log) path(seq uint64) string { return filepath.Join(l.dir, segName(seq)) }

func appendHeader(dst []byte) []byte {
	dst = append(dst, magic...)
	return binary.AppendUvarint(dst, version)
}

// Open opens the log over dir, creating the directory if needed, and
// recovers from any crash the directory witnessed: interrupted-compaction
// temp files (`.tmp-*`) are deleted, and a torn tail on the newest
// segment — a machine crash mid-write — is truncated at the last whole
// record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = DefaultRotateBytes
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	l := &Log{opts: opts, fs: vfs.Default(opts.FS), dir: dir}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash-stranded compaction temp was never reachable, so deleting
	// it is always safe.
	if _, err := vfs.RemoveTemps(l.fs, dir, ".tmp-"); err != nil {
		return nil, err
	}
	ents, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		if seq, ok := parseSegName(ent.Name()); ok && !ent.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if len(seqs) == 0 {
		err = l.startSegmentLocked(1)
	} else {
		l.seal = seqs[:len(seqs)-1]
		err = l.reopenSegmentLocked(seqs[len(seqs)-1])
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// startSegmentLocked creates segment seq with a fresh header and makes
// it the active segment.
func (l *Log) startSegmentLocked(seq uint64) error {
	f, err := l.fs.OpenFile(l.path(seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendHeader(nil)); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size = f, seq, int64(headerLen)
	return nil
}

// reopenSegmentLocked makes an existing segment the active one,
// repairing a torn tail first.
func (l *Log) reopenSegmentLocked(seq uint64) error {
	path := l.path(seq)
	b, err := l.fs.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) >= len(magic) && string(b[:len(magic)]) != magic {
		// A full, wrong magic is not tear damage — refuse to "repair"
		// a file that was never ours.
		return fmt.Errorf("epilog: %s: bad segment magic", path)
	}
	good, derr := decodeSegment(b, nil)
	if derr != nil && errors.Is(derr, errVersion) {
		return fmt.Errorf("epilog: %s: %w", path, derr)
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if derr != nil || good < len(b) {
		// Torn tail (or trailing garbage): keep the whole records, drop
		// the rest. A tail shorter than the header means the segment
		// itself was torn at creation — restart it from scratch.
		l.truncated += int64(len(b) - good)
		if good < headerLen {
			good = 0
		}
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return err
		}
		if good == 0 {
			if _, err := f.Write(appendHeader(nil)); err != nil {
				f.Close()
				return err
			}
			good = headerLen
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size = f, seq, int64(good)
	return nil
}

// appendRecordPayload encodes one record payload (the bytes inside the
// length-prefixed frame).
func appendRecordPayload(dst []byte, ep *Episode) []byte {
	var flags byte
	if ep.Open {
		flags |= recOpen
	}
	dst = append(dst, flags)
	dst = binenc.AppendPrefix(dst, ep.Prefix)
	dst = binary.AppendUvarint(dst, ep.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(ep.Origins)))
	for _, o := range ep.Origins {
		dst = binary.AppendUvarint(dst, uint64(o))
	}
	dst = append(dst, byte(ep.Class))
	dst = binary.AppendUvarint(dst, uint64(ep.Start))
	return binary.AppendUvarint(dst, uint64(ep.End))
}

// validate rejects episodes the decoder would refuse to read back.
func validate(ep *Episode) error {
	if ep.Seq == 0 {
		return fmt.Errorf("epilog: episode %s: seq 0", ep.Prefix)
	}
	if len(ep.Origins) < 2 {
		return fmt.Errorf("epilog: episode %s: %d origins (conflict needs >= 2)", ep.Prefix, len(ep.Origins))
	}
	for i := 1; i < len(ep.Origins); i++ {
		if ep.Origins[i] <= ep.Origins[i-1] {
			return fmt.Errorf("epilog: episode %s: origins not strictly ascending", ep.Prefix)
		}
	}
	if int(ep.Class) >= core.NumClasses {
		return fmt.Errorf("epilog: episode %s: class %d out of range", ep.Prefix, ep.Class)
	}
	if ep.Start < 0 || ep.End < ep.Start {
		return fmt.Errorf("epilog: episode %s: span [%d,%d]", ep.Prefix, ep.Start, ep.End)
	}
	return nil
}

// decodeSegment walks one whole segment image, invoking fn (which may
// be nil) for every record. The Episode passed to fn — including its
// Origins backing — is reused; copy before retaining. It returns the
// byte offset just past the last whole record (the torn-tail truncation
// point) along with the first decode error, nil when the image parses
// completely.
func decodeSegment(b []byte, fn func(*Episode) error) (int, error) {
	r := binenc.NewReader(b)
	if string(r.Bytes(len(magic))) != magic {
		if err := r.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("epilog: bad segment magic")
	}
	if v := r.Uvarint(); r.Err() == nil && v != version {
		return 0, fmt.Errorf("%w %d", errVersion, v)
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	good := len(b) - r.Len()
	var ep Episode
	origins := make([]bgp.ASN, 0, 8)
	for r.Len() > 0 {
		fr := r.Frame()
		if err := r.Err(); err != nil {
			return good, err
		}
		flags := fr.Byte()
		if fr.Err() == nil && flags&^recOpen != 0 {
			return good, fmt.Errorf("%w: record flags %#x", binenc.ErrCorrupt, flags)
		}
		ep = Episode{Open: flags&recOpen != 0}
		ep.Prefix = fr.Prefix()
		ep.Seq = fr.Uvarint()
		no := fr.Count(1)
		origins = origins[:0]
		prev := int64(-1)
		for j := 0; j < no; j++ {
			v := fr.Uvarint()
			if fr.Err() != nil {
				break
			}
			if v > 0xFFFFFFFF || int64(v) <= prev {
				return good, fmt.Errorf("%w: origins not strictly ascending 32-bit", binenc.ErrCorrupt)
			}
			prev = int64(v)
			origins = append(origins, bgp.ASN(v))
		}
		ep.Origins = origins
		ep.Class = core.Class(fr.Byte())
		ep.Start = int(fr.Uvarint())
		ep.End = int(fr.Uvarint())
		if err := fr.End(); err != nil {
			return good, err
		}
		if err := validate(&ep); err != nil {
			return good, fmt.Errorf("%w: %v", binenc.ErrCorrupt, err)
		}
		if fn != nil {
			if err := fn(&ep); err != nil {
				return good, err
			}
		}
		good = len(b) - r.Len()
	}
	return good, nil
}

// Append records a batch of episodes — a stream shard passes what one
// batch of route ops produced — in one write. The episodes (and their
// Origins) are fully encoded, or cloned into the pending queue, before
// return, so callers may reuse the backing slices. An invalid episode
// is refused and Append returns the first such error, but its valid
// neighbours are still recorded, in order. I/O failures do not latch
// the log dead: the first failure flips it into degraded mode, where
// episodes are buffered in memory (bounded by Options.MaxPending,
// overflow counted in Health().Lost), durability is retried with a
// doubling backoff counted in Append calls, and a successful retry
// flushes the queue in order and un-degrades. While degraded, Append
// returns the current durability error so producers can observe the
// condition, but the episodes have still been accepted into the
// pending queue.
func (l *Log) Append(eps ...Episode) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	eps, verr := validEpisodes(eps)
	switch {
	case len(eps) == 0:
	case l.degraded:
		l.bufferLocked(eps)
		if l.shouldRetryLocked() {
			l.tryHealLocked()
		}
	default:
		if err := l.writeLocked(eps); err != nil {
			// The write may be torn; repairLocked cuts it back to the
			// size before this call, so the whole call waits in the queue.
			l.degradeLocked(err)
			l.bufferLocked(eps)
		} else {
			l.maybeRotateLocked()
		}
	}
	if verr == nil && l.degraded {
		return l.degErr
	}
	return verr
}

// validEpisodes returns eps without its invalid episodes, and the first
// validation error. Only a batch with an invalid episode is copied.
func validEpisodes(eps []Episode) ([]Episode, error) {
	for i := range eps {
		err := validate(&eps[i])
		if err == nil {
			continue
		}
		valid := append([]Episode(nil), eps[:i]...)
		for j := i + 1; j < len(eps); j++ {
			if validate(&eps[j]) == nil {
				valid = append(valid, eps[j])
			}
		}
		return valid, err
	}
	return eps, nil
}

// writeLocked encodes eps' records into l.frame and writes them to the
// active segment in one Write, advancing size/appended on success. On
// failure the file may hold a torn prefix of them past l.size; dirty
// marks it for truncate-repair before the next disk write.
func (l *Log) writeLocked(eps []Episode) error {
	if l.f == nil {
		return l.degErr // mid-rotation crash left no active segment
	}
	l.frame = l.frame[:0]
	for i := range eps {
		l.payload = appendRecordPayload(l.payload[:0], &eps[i])
		l.frame = binenc.AppendFrame(l.frame, l.payload)
	}
	if n, err := l.f.Write(l.frame); err != nil {
		if n > 0 {
			l.dirty = true
		}
		return err
	}
	l.size += int64(len(l.frame))
	l.appended += uint64(len(eps))
	return nil
}

// maybeRotateLocked rotates when the active segment is over the line.
// A rotation failure degrades the log but loses nothing: the appended
// records are on disk, and the rotation is retried by the heal path.
func (l *Log) maybeRotateLocked() {
	if l.f != nil && l.size >= int64(l.opts.RotateBytes) {
		if err := l.rotateLocked(); err != nil {
			l.degradeLocked(err)
		}
	}
}

// degradeLocked flips the log into degraded mode (or refreshes the
// error while already degraded).
func (l *Log) degradeLocked(err error) {
	l.degraded = true
	l.degErr = err
	if l.retryGap == 0 {
		l.retryGap = 1
		l.retrySkip = 0 // first retry happens on the very next append
	}
}

// bufferLocked clones the episodes into the pending queue, in order,
// dropping and counting each one instead when the queue is full.
func (l *Log) bufferLocked(eps []Episode) {
	for i := range eps {
		if len(l.pending) >= l.opts.MaxPending {
			l.lost++
			continue
		}
		l.pending = append(l.pending, cloneEpisode(&eps[i]))
	}
}

// shouldRetryLocked paces durability retries: every firing doubles the
// gap (capped) until tryHealLocked succeeds and resets it.
func (l *Log) shouldRetryLocked() bool {
	if l.retrySkip > 0 {
		l.retrySkip--
		return false
	}
	return true
}

// backoffLocked widens the retry gap after a failed heal attempt.
func (l *Log) backoffLocked() {
	l.retryGap *= 2
	if l.retryGap > maxRetryGap {
		l.retryGap = maxRetryGap
	}
	if l.retryGap == 0 {
		l.retryGap = 1
	}
	l.retrySkip = l.retryGap
}

// repairLocked restores the active segment to a writable, torn-free
// state: re-creates it if a mid-rotation failure left none, and
// truncates any torn bytes a failed write left past the durable size.
func (l *Log) repairLocked() error {
	if l.f == nil {
		if err := l.startSegmentLocked(l.seq + 1); err != nil {
			return err
		}
		l.dirty = false
		return nil
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	if _, err := l.f.Seek(l.size, 0); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// tryHealLocked attempts to restore durability: repair the active
// segment, flush the pending queue in order, and finish any pending
// rotation. Full success un-degrades the log.
func (l *Log) tryHealLocked() {
	l.retries++
	if err := l.repairLocked(); err != nil {
		l.degErr = err
		l.backoffLocked()
		return
	}
	if len(l.pending) > 0 {
		// The queue flushes like one Append call: one write, all or
		// nothing.
		if err := l.writeLocked(l.pending); err != nil {
			l.degErr = err
			l.backoffLocked()
			return
		}
		l.pending = nil // release the drained queue's backing array
	}
	l.degraded = false
	l.degErr = nil
	l.retryGap, l.retrySkip = 0, 0
	l.healedCnt++
	l.maybeRotateLocked() // may re-degrade; keeps rotation retried
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one, then runs auto-compaction when enough sealed segments have
// piled up. A compaction failure does not fail the
// append that triggered it — the log remains appendable and the fold
// remains correct over uncompacted segments. A sync failure leaves the
// segment active (nothing sealed, nothing lost); a failure after the
// seal leaves l.f nil for repairLocked to restart.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	// The data is synced; a close failure only taints the fd, so the
	// segment is sealed anyway.
	_ = l.f.Close()
	l.seal = append(l.seal, l.seq)
	l.f = nil
	if err := l.startSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	if l.opts.CompactEvery > 0 && len(l.seal) >= l.opts.CompactEvery {
		_ = l.compactLocked()
	}
	return nil
}

// compactLocked merges all sealed segments into one: closed records
// deduplicate by (prefix, seq) and open records superseded within the
// merged set — by a newer open record or any closed record at an equal
// or higher seq for the prefix — are dropped. The merged segment
// replaces the lowest merged name atomically (vfs.WriteFileAtomic)
// before the others are removed, so a crash at any point leaves
// either the old segments or the new one plus stale duplicates — both
// of which the read fold resolves. The active segment is not touched.
func (l *Log) compactLocked() error {
	if len(l.seal) < 2 {
		return nil
	}
	f := fold{aggs: make(map[bgp.Prefix]*pfxAgg)}
	for _, seq := range l.seal {
		b, err := l.fs.ReadFile(l.path(seq))
		if err != nil {
			return err
		}
		if _, err := decodeSegment(b, f.add); err != nil {
			return fmt.Errorf("epilog: compact %s: %w", segName(seq), err)
		}
	}
	out := f.episodes(nil)
	buf := appendHeader(nil)
	var payload []byte
	for i := range out {
		payload = appendRecordPayload(payload[:0], &out[i])
		buf = binenc.AppendFrame(buf, payload)
	}
	keep := l.seal[0]
	if err := vfs.WriteFileAtomic(l.fs, l.path(keep), ".tmp-mepl-*", buf); err != nil {
		return err
	}
	for _, seq := range l.seal[1:] {
		if err := l.fs.Remove(l.path(seq)); err != nil {
			return err
		}
	}
	l.seal = append(l.seal[:0], keep)
	l.compactions++
	return nil
}

// Close makes one final durability attempt (flushing any degraded
// pending queue), then fsyncs and closes the active segment. The Log
// is unusable afterwards; reopen the directory with a fresh Log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.degraded {
		l.tryHealLocked()
	}
	l.closed = true
	if l.f == nil {
		return l.degErr
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err == nil && l.degraded {
		err = l.degErr
	}
	return err
}

// Health is the log's durability health, surfaced per scenario under
// the episode_log subsystem.
type Health struct {
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
	Pending  int    `json:"pending,omitempty"`
	Lost     uint64 `json:"lost,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	Healed   uint64 `json:"healed,omitempty"`
}

// Health reports the degradation state: whether the log is currently
// buffering instead of persisting, the error that put it there, the
// pending-queue depth, episodes lost to overflow (a permanent history
// hole), and the retry/heal counters.
func (l *Log) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := Health{
		Degraded: l.degraded,
		Pending:  len(l.pending),
		Lost:     l.lost,
		Retries:  l.retries,
		Healed:   l.healedCnt,
	}
	if l.degraded && l.degErr != nil {
		h.Error = l.degErr.Error()
	}
	return h
}

// Stats is a point-in-time summary of the log's on-disk shape.
type Stats struct {
	Segments    int    `json:"segments"`
	Bytes       int64  `json:"bytes"`
	Appended    uint64 `json:"appended"`
	Truncated   int64  `json:"truncated_bytes,omitempty"`
	Compactions int    `json:"compactions,omitempty"`
}

// Stats reports the log's current shape. Sealed segment sizes are
// statted on demand; this is a cold path.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Appended:    l.appended,
		Truncated:   l.truncated,
		Compactions: l.compactions,
	}
	s.Segments = len(l.seal) + 1
	s.Bytes = l.size
	for _, seq := range l.seal {
		if fi, err := l.fs.Stat(l.path(seq)); err == nil {
			s.Bytes += fi.Size()
		}
	}
	return s
}

// Query filters the fold of the log. The zero value matches every
// closed episode and every live open one.
type Query struct {
	// From and To bound the episode's active days, inclusive; an
	// episode matches when its span intersects [From, To]. To <= 0
	// means no upper bound.
	From, To int
	// Prefix restricts to one prefix when non-nil.
	Prefix *bgp.Prefix
	// Origin restricts to episodes whose origin set contains this AS;
	// 0 matches any.
	Origin bgp.ASN
	// Class restricts to one taxonomy class; negative matches any.
	Class int
	// MinDays drops episodes shorter than this many days.
	MinDays int
	// AsOf renders open episodes' End as max(Start, AsOf) — callers
	// pass the engine's last closed day so open durations are current.
	AsOf int
	// Limit caps the result count after sorting; 0 means unlimited.
	Limit int
}

func (q *Query) matches(ep *Episode) bool {
	if ep.End < q.From {
		return false
	}
	if q.To > 0 && ep.Start > q.To {
		return false
	}
	if q.Prefix != nil && ep.Prefix != *q.Prefix {
		return false
	}
	if q.Origin != 0 {
		found := false
		for _, o := range ep.Origins {
			if o == q.Origin {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if q.Class >= 0 && int(ep.Class) != q.Class {
		return false
	}
	if q.MinDays > 0 && ep.Duration() < q.MinDays {
		return false
	}
	return true
}

// Query folds every segment and returns the matching episodes, sorted
// by (prefix, start, seq). Results own their memory.
func (l *Log) Query(q Query) ([]Episode, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queryLocked(q)
}

// fold is the log's one reading rule, over any set of record sources
// (segment images, the pending queue): a closed record counts once per
// (prefix, seq) — a checkpoint-resume re-emits records — and of a
// prefix's open records only the one with the highest seq is live, and
// only while no closed record of that prefix has that seq or a higher.
// Queries apply it to every segment plus the pending queue, compaction
// to the sealed segments.
type fold struct {
	// keep, when non-nil, filters closed records as they arrive, so a
	// selective query clones only what it returns.
	keep   func(*Episode) bool
	aggs   map[bgp.Prefix]*pfxAgg
	closed []Episode
}

// pfxAgg is the fold's per-prefix state: the highest closed seq (to
// judge open records' liveness) and the best open candidate.
type pfxAgg struct {
	maxClosed uint64
	open      Episode
	hasOpen   bool
}

// add folds one record in; it is decodeSegment's callback.
func (f *fold) add(ep *Episode) error {
	a := f.aggs[ep.Prefix]
	if a == nil {
		a = &pfxAgg{}
		f.aggs[ep.Prefix] = a
	}
	if ep.Open {
		if !a.hasOpen || ep.Seq > a.open.Seq {
			a.open = cloneEpisode(ep)
			a.hasOpen = true
		}
	} else {
		if ep.Seq > a.maxClosed {
			a.maxClosed = ep.Seq
		}
		if f.keep == nil || f.keep(ep) {
			f.closed = append(f.closed, cloneEpisode(ep))
		}
	}
	return nil
}

// episodes returns the fold's result in canonical order: the kept closed
// records, deduplicated, and each prefix's live open record — as render
// leaves it, and only if render accepts it, when render is non-nil.
func (f *fold) episodes(render func(*Episode) bool) []Episode {
	all := f.closed
	for _, a := range f.aggs {
		if a.hasOpen && a.open.Seq > a.maxClosed && (render == nil || render(&a.open)) {
			all = append(all, a.open)
		}
	}
	sortEpisodes(all)
	// Closed duplicates sort adjacent: identical (prefix, seq) pairs
	// collapse to one.
	out := all[:0]
	for i := range all {
		if i > 0 && all[i].Prefix == all[i-1].Prefix && all[i].Seq == all[i-1].Seq {
			continue
		}
		out = append(out, all[i])
	}
	return out
}

func (l *Log) queryLocked(q Query) ([]Episode, error) {
	if l.closed {
		return nil, ErrClosed
	}
	f := fold{keep: q.matches, aggs: make(map[bgp.Prefix]*pfxAgg)}
	segs := append(append([]uint64(nil), l.seal...), l.seq)
	for _, seq := range segs {
		b, err := l.fs.ReadFile(l.path(seq))
		if err != nil {
			if seq == l.seq && l.f == nil {
				continue // mid-rotation degradation: no active segment yet
			}
			return nil, err
		}
		_, err = decodeSegment(b, f.add)
		if err != nil {
			if seq == l.seq && l.dirty {
				// A failed write left torn bytes past the durable size;
				// the whole records before the tear have been folded and
				// repairLocked will truncate the rest before the next
				// write. The read stays truthful.
				continue
			}
			return nil, fmt.Errorf("epilog: %s: %w", segName(seq), err)
		}
	}
	// Degraded-mode pending episodes are part of the log's truth even
	// though they are not on disk yet: fold them in so reads do not
	// regress while the disk is sick.
	for i := range l.pending {
		_ = f.add(&l.pending[i]) // add never fails
	}
	// An open episode lasts to the query's as-of day.
	out := f.episodes(func(ep *Episode) bool {
		ep.End = max(ep.End, q.AsOf, ep.Start)
		return q.matches(ep)
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// Summary is the duration/persistence histogram over a query's result.
type Summary struct {
	Total      int `json:"total"`
	Open       int `json:"open"`
	Closed     int `json:"closed"`
	Persistent int `json:"persistent"` // duration >= PersistentDays

	// ByClass counts episodes per taxonomy class, indexed by core.Class.
	ByClass [core.NumClasses]int `json:"by_class"`
	// Durations buckets episode lengths: 1 day, 2-6, 7-29, 30-89, 90+.
	Durations [5]int `json:"durations"`
}

// durationBucket indexes Summary.Durations for an episode length.
func durationBucket(days int) int {
	switch {
	case days <= 1:
		return 0
	case days < 7:
		return 1
	case days < 30:
		return 2
	case days < 90:
		return 3
	}
	return 4
}

// Summary folds the log like Query (Limit is ignored) and histograms
// the matches.
func (l *Log) Summary(q Query) (Summary, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q.Limit = 0
	eps, err := l.queryLocked(q)
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	s.Total = len(eps)
	for i := range eps {
		ep := &eps[i]
		if ep.Open {
			s.Open++
		} else {
			s.Closed++
		}
		d := ep.Duration()
		if d >= PersistentDays {
			s.Persistent++
		}
		s.ByClass[ep.Class]++
		s.Durations[durationBucket(d)]++
	}
	return s, nil
}

func cloneEpisode(ep *Episode) Episode {
	out := *ep
	out.Origins = append([]bgp.ASN(nil), ep.Origins...)
	return out
}

// sortEpisodes orders canonically: (prefix, start, seq).
func sortEpisodes(eps []Episode) {
	sort.Slice(eps, func(i, j int) bool {
		if c := eps[i].Prefix.Compare(eps[j].Prefix); c != 0 {
			return c < 0
		}
		if eps[i].Start != eps[j].Start {
			return eps[i].Start < eps[j].Start
		}
		return eps[i].Seq < eps[j].Seq
	})
}
