package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"moas/internal/binenc"
	"moas/internal/stream"
	"moas/internal/vfs"
)

// Durability configures crash-safe auto-checkpointing: every hosted
// scenario is periodically serialized into its own subdirectory of Dir
// (atomic write-rename, oldest files rotated out), and Recover rebuilds
// the registry from those directories at boot. The zero value disables
// the whole subsystem.
type Durability struct {
	// Dir is the checkpoint root; each scenario owns Dir/<id>/. Empty
	// disables durability.
	Dir string
	// Interval is the auto-checkpoint period (0 = DefaultCheckpointInterval).
	Interval time.Duration
	// Keep is how many checkpoint files each scenario retains; older ones
	// are removed after every successful write (0 = DefaultCheckpointKeep).
	Keep int
	// FS is the filesystem checkpoints are written through. Nil means
	// the real disk; the chaos oracle injects a vfs.Faulty.
	FS vfs.FS
}

// DefaultCheckpointInterval is the auto-checkpoint period when
// Durability.Interval is zero.
const DefaultCheckpointInterval = time.Minute

// DefaultCheckpointKeep is the per-scenario rotation depth when
// Durability.Keep is zero. More than one on purpose: recovery falls back
// to the previous file when the newest was cut short by the crash that
// made recovery necessary.
const DefaultCheckpointKeep = 3

func (d Durability) enabled() bool { return d.Dir != "" }

func (d Durability) interval() time.Duration {
	if d.Interval <= 0 {
		return DefaultCheckpointInterval
	}
	return d.Interval
}

func (d Durability) keep() int {
	if d.Keep <= 0 {
		return DefaultCheckpointKeep
	}
	return d.Keep
}

func (d Durability) fs() vfs.FS { return vfs.Default(d.FS) }

// scenarioCheckpointMagic introduces a scenario checkpoint file.
var scenarioCheckpointMagic = []byte("MSCK")

// envelope is ScenarioCheckpoint without its JSON methods: the form of
// the file's envelope frame, whose engine member is always null.
type envelope ScenarioCheckpoint

// AppendScenarioCheckpointBinary appends ck's file encoding, the one
// form a scenario checkpoint takes on disk and over the API: the magic
// and version, a JSON frame carrying the envelope (source config,
// calendar position, SSE cursor — small and worth keeping inspectable),
// and a frame with the engine checkpoint in stream's binary format,
// which is where full-archive-scale state lives.
func AppendScenarioCheckpointBinary(dst []byte, ck *ScenarioCheckpoint) ([]byte, error) {
	if ck.Engine == nil {
		return nil, fmt.Errorf("serve: checkpoint has no engine state")
	}
	meta := envelope(*ck)
	meta.Engine = nil
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return nil, err
	}
	dst = append(dst, scenarioCheckpointMagic...)
	dst = binary.AppendUvarint(dst, uint64(ck.Version))
	dst = binenc.AppendFrame(dst, metaJSON)
	// The engine frame is written in place: the encoder sizes dst once
	// for the whole image, and no second copy of it ever exists.
	start := len(dst)
	if dst, err = stream.AppendCheckpointBinary(binenc.BeginFrame(dst), ck.Engine); err != nil {
		return nil, err
	}
	return binenc.EndFrame(dst, start), nil
}

// errJSONCheckpoint refuses a checkpoint in the JSON form the API and
// the checkpoint directory once also took.
var errJSONCheckpoint = errors.New("serve: JSON checkpoints are no longer read; restore it with the moasd that wrote it and take a new checkpoint")

// ReadScenarioCheckpoint decodes a scenario checkpoint file's bytes — what
// the store writes, POST /scenarios/{id}/checkpoint returns and GET
// serves, so a saved API response dropped into the checkpoint directory
// boots, and a download restores through a create. The envelope is read
// leniently: a member it does not know is skipped. The result's engine
// image aliases data.
func ReadScenarioCheckpoint(data []byte) (*ScenarioCheckpoint, error) {
	if !bytes.HasPrefix(data, scenarioCheckpointMagic) {
		if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
			return nil, errJSONCheckpoint
		}
		return nil, fmt.Errorf("serve: not a checkpoint: no %q magic", scenarioCheckpointMagic)
	}
	rd := binenc.NewReader(data[len(scenarioCheckpointMagic):])
	version := rd.Uvarint()
	if rd.Err() == nil && version != ScenarioCheckpointVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, want %d", version, ScenarioCheckpointVersion)
	}
	metaJSON := rd.Frame()
	meta := metaJSON.Bytes(metaJSON.Len())
	engFrame := rd.Frame()
	engBytes := engFrame.Bytes(engFrame.Len())
	if err := rd.End(); err != nil {
		return nil, fmt.Errorf("serve: decode binary checkpoint: %w", err)
	}
	var ck envelope
	if err := json.Unmarshal(meta, &ck); err != nil {
		return nil, fmt.Errorf("serve: decode checkpoint envelope: %w", err)
	}
	eng, err := stream.DecodeCheckpointBinary(engBytes) // in place: no copy of the frame
	if err != nil {
		return nil, err
	}
	ck.Engine = eng
	if ck.Version != ScenarioCheckpointVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, want %d", ck.Version, ScenarioCheckpointVersion)
	}
	return (*ScenarioCheckpoint)(&ck), nil
}

// checkpointStore is one scenario's on-disk checkpoint directory:
// rotation-numbered files, newest last by name.
type checkpointStore struct {
	dir  string
	keep int
	fs   vfs.FS
}

const (
	checkpointFilePrefix = "ck-"
	checkpointFileExt    = ".mckpt"
)

// files returns the store's checkpoint files sorted newest first. File
// names order by rotation sequence (zero-padded), so a plain descending
// name sort is newest-first; hand-dropped files sort wherever their
// names land and are still considered.
func (st checkpointStore) files() []string {
	ents, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out
}

// latest returns the path of the newest checkpoint file.
func (st checkpointStore) latest() (string, bool) {
	fs := st.files()
	if len(fs) == 0 {
		return "", false
	}
	return filepath.Join(st.dir, fs[0]), true
}

// cleanTemps removes crash-leftover temp files. write's rename-into-place
// means a crash can strand a ".tmp-ck-*" file; files() never lists
// dotfiles, so strays are invisible to recovery and rotation — and would
// otherwise accumulate forever. Called from Registry.Recover, the one
// moment no writer can be mid-flight.
func (st checkpointStore) cleanTemps(logf func(string, ...any)) {
	removed, err := vfs.RemoveTemps(st.fs, st.dir, ".tmp-")
	for _, path := range removed {
		logf("recover: removed stale temp %s", path)
	}
	if err != nil {
		logf("recover: removing stale temps in %s: %v", st.dir, err)
	}
}

// nextSeq scans existing rotation names for the highest sequence number.
func (st checkpointStore) nextSeq() uint64 {
	var max uint64
	for _, name := range st.files() {
		s := strings.TrimSuffix(strings.TrimPrefix(name, checkpointFilePrefix), checkpointFileExt)
		if n, err := strconv.ParseUint(s, 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

// write persists ck atomically — vfs.WriteFileAtomic through a
// dot-hidden temp file in the same directory — then rotates old files
// out. A crash mid-write leaves only a temp file recovery ignores; the
// previous checkpoint is never the thing being overwritten.
func (st checkpointStore) write(ck *ScenarioCheckpoint) (string, error) {
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return "", err
	}
	blob, err := AppendScenarioCheckpointBinary(nil, ck)
	if err != nil {
		return "", err
	}
	final := filepath.Join(st.dir, fmt.Sprintf("%s%010d%s", checkpointFilePrefix, st.nextSeq(), checkpointFileExt))
	if err := vfs.WriteFileAtomic(st.fs, final, ".tmp-ck-*", blob); err != nil {
		return "", err
	}
	st.prune()
	return final, nil
}

// prune removes the oldest rotation files beyond keep. Only files the
// store named itself are touched.
func (st checkpointStore) prune() {
	var owned []string
	for _, name := range st.files() {
		if strings.HasPrefix(name, checkpointFilePrefix) && strings.HasSuffix(name, checkpointFileExt) {
			owned = append(owned, name)
		}
	}
	for _, name := range owned[min(st.keep, len(owned)):] {
		_ = st.fs.Remove(filepath.Join(st.dir, name))
	}
}

// recoverNewest walks the store newest-first and returns the first
// checkpoint that still decodes, with the files it had to skip. This is
// the corrupt-newest fallback: a file truncated by the crash itself (or
// rotted on disk) costs one checkpoint interval of progress, not the
// scenario.
func (st checkpointStore) recoverNewest(logf func(string, ...any)) (*ScenarioCheckpoint, string, bool) {
	for _, name := range st.files() {
		path := filepath.Join(st.dir, name)
		data, err := st.fs.ReadFile(path) // one buffer, sized from the file
		if err != nil {
			logf("recover: %s: %v", path, err)
			continue
		}
		ck, err := ReadScenarioCheckpoint(data)
		if errors.Is(err, errJSONCheckpoint) {
			logf("recover: %s: skipping checkpoint in the retired JSON format: %v", path, err)
			continue
		}
		if err != nil {
			logf("recover: %s: skipping corrupt checkpoint: %v", path, err)
			continue
		}
		return ck, path, true
	}
	return nil, "", false
}
