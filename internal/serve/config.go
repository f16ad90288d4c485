package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"moas/internal/stream"
)

// ScenarioConfig is the POST /scenarios request body: what to replay and
// how. Zero values mean defaults.
type ScenarioConfig struct {
	// ID names the scenario in every /scenarios/{id}/... path. Optional;
	// defaults to the scale (synth) or the file's base name (mrt), with a
	// numeric suffix on collision. Letters, digits, ".", "_", "-" only.
	ID string `json:"id,omitempty"`
	// Source is "synth" (default), "mrt", "rislive", "bgp" or
	// "checkpoint".
	Source string `json:"source,omitempty"`
	// Scale selects the synthesized scenario: "small" (two months),
	// "full" (the paper's 1279 days) or "stress" (the internet-scale
	// internal/synth update stream). Synth only; default "small".
	Scale string `json:"scale,omitempty"`
	// Path is the MRT BGP4MP file to replay. MRT only; must exist.
	Path string `json:"path,omitempty"`
	// URL is the ws:// feed endpoint. RIS Live only.
	URL string `json:"url,omitempty"`
	// Listen is the TCP address the BGP speaker accepts sessions on
	// (e.g. ":179", "127.0.0.1:1790"). BGP only.
	Listen string `json:"listen,omitempty"`
	// LocalAS is the AS the BGP speaker answers OPEN with (BGP only;
	// 0 = 64512, the first private AS).
	LocalAS uint32 `json:"local_as,omitempty"`
	// Deprecated: accepted and ignored, so that a create body or a
	// checkpoint config written while the interner cap was a knob still
	// loads (every engine's interner holds bgp.DefaultInternCap blocks
	// per epoch); normalize zeroes it, as DecodeWorkers.
	MaxAttrs int `json:"max_attrs,omitempty"`
	// Shards is the engine's worker count (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Deprecated: accepted and ignored, so that a create body or a
	// checkpoint config written while replays had decode workers still
	// loads; normalize zeroes it, so it is never stored or echoed.
	DecodeWorkers int `json:"decode_workers,omitempty"`
	// DaysPerSec paces the replay in observed days per second (0 = as
	// fast as possible).
	DaysPerSec float64 `json:"days_per_sec,omitempty"`
	// Deprecated: accepted and ignored, so that a create body or a
	// checkpoint config written while scenarios kept per-prefix event
	// history still loads; normalize zeroes it, as DecodeWorkers.
	History int `json:"history,omitempty"`
	// EventBuffer sizes each SSE subscriber's channel (0 = 1024). A
	// subscriber that falls this many events behind is dropped.
	EventBuffer int `json:"event_buffer,omitempty"`
	// Start, when true, starts the replay immediately after creation —
	// the create-and-start convenience moasd's boot flags use.
	Start bool `json:"start,omitempty"`
	// Checkpoint is the state to restore. Source "checkpoint" only; the
	// source comes from the checkpointed scenario, and so do the knobs
	// (shards, pacing, event buffer) the request leaves unset. In a
	// request body it is the checkpoint file's bytes as a base64 string
	// (ScenarioCheckpoint.UnmarshalJSON).
	Checkpoint *ScenarioCheckpoint `json:"checkpoint,omitempty"`
}

// ScenarioCheckpointVersion is the scenario checkpoint envelope version
// (the engine payload carries stream.CheckpointVersion separately).
const ScenarioCheckpointVersion = 1

// ScenarioCheckpoint is a paused (or finished) scenario's portable image:
// the original source configuration, the replay's calendar position, and
// the engine checkpoint (kernel snapshot + route tables + record cursor).
// Its one encoding is the checkpoint file (AppendScenarioCheckpointBinary);
// POST /scenarios with source "checkpoint" resumes it, in the same
// process or another one with access to the same source.
type ScenarioCheckpoint struct {
	Version int `json:"version"`
	// Config is the checkpointed scenario's effective config (never
	// "checkpoint" — a restored scenario checkpoints as the kind it was
	// restored to).
	Config ScenarioConfig `json:"config"`
	// TotalDays is the source calendar's length (0 if the source was
	// never opened).
	TotalDays int `json:"total_days"`
	// DaysClosed is how many observation days the replay had closed.
	DaysClosed int `json:"days_closed"`
	// LastEventID is the hub's SSE id cursor. The restored scenario's hub
	// continues the id-space from here, so a client reconnecting with
	// Last-Event-ID after a restore keeps a monotonic cursor: events that
	// fell outside the (unserialized) ring are reported as a gap instead
	// of silently skipped against a restarted id-space.
	LastEventID uint64 `json:"last_event_id"`
	// Engine is the serialized engine state.
	Engine *stream.Checkpoint `json:"engine"`
}

// UnmarshalJSON reads a checkpoint given as a JSON string: its file's
// bytes (AppendScenarioCheckpointBinary), base64-encoded. A JSON object —
// the form the checkpoint field once took — is refused as such.
func (ck *ScenarioCheckpoint) UnmarshalJSON(data []byte) error {
	if bytes.HasPrefix(data, []byte("{")) {
		return errJSONCheckpoint
	}
	var blob []byte
	if err := json.Unmarshal(data, &blob); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	read, err := ReadScenarioCheckpoint(blob)
	if err != nil {
		return err
	}
	*ck = *read
	return nil
}

// isIDRune bounds the scenario-ID alphabet (IDs appear raw in URL paths
// and name per-scenario checkpoint directories).
func isIDRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
		r == '.' || r == '_' || r == '-'
}

// cleanID keeps the runes of an untrusted name that an ID may hold.
func cleanID(name string) string {
	var clean []rune
	for _, r := range name {
		if isIDRune(r) {
			clean = append(clean, r)
		}
	}
	return string(clean)
}

// validateID enforces the scenario-ID rules on a non-empty ID. "." and
// ".." are refused even though their runes are legal: with durability on
// the ID names a directory under the checkpoint root, and either would
// escape it.
func validateID(id string) error {
	if id == "." || id == ".." {
		return fmt.Errorf("scenario id %q not allowed", id)
	}
	if cleanID(id) != id {
		return fmt.Errorf("scenario id %q: only letters, digits, '.', '_', '-' allowed", id)
	}
	return nil
}

// Per-scenario knob ceilings (request bodies are untrusted input; these
// are far above any sensible setting, small enough that one create
// cannot exhaust the process).
const (
	MaxShards      = 1024
	MaxEventBuffer = 1 << 20
)

// foreignField returns the first source-specific field the config sets
// that owns does not list, or "".
func (c *ScenarioConfig) foreignField(owns []string) string {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"scale", c.Scale != ""}, {"path", c.Path != ""}, {"url", c.URL != ""},
		{"listen", c.Listen != ""}, {"local_as", c.LocalAS != 0},
	} {
		if f.set && !slices.Contains(owns, f.name) {
			return f.name
		}
	}
	return ""
}

// normalize validates a create request and turns it, in place, into the
// scenario's effective config: the request with defaults filled, or — for
// source "checkpoint" — the checkpointed scenario's config under the
// request's ID, start flag and set knobs, still carrying the checkpoint
// for newScenario to restore. Either way the effective source is a kind
// of sourceKinds and has passed that kind's check.
func (c *ScenarioConfig) normalize() error {
	if c.ID != "" {
		if err := validateID(c.ID); err != nil {
			return err
		}
	}
	if c.Source == "" {
		c.Source = SourceSynth
	}
	where := ""
	if ck := c.Checkpoint; c.Source == SourceCheckpoint {
		if ck == nil {
			return errors.New(`source "checkpoint" requires "checkpoint"`)
		}
		if ck.Version != ScenarioCheckpointVersion {
			return fmt.Errorf("checkpoint version %d, want %d", ck.Version, ScenarioCheckpointVersion)
		}
		if ck.Engine == nil {
			return errors.New("checkpoint has no engine state")
		}
		if f := c.foreignField(nil); f != "" {
			return fmt.Errorf("%q comes from the checkpoint with source %q", f, SourceCheckpoint)
		}
		*c, where = ck.Config.overlaid(*c), "checkpoint config: "
	} else if ck != nil {
		return errors.New(`"checkpoint" is only valid with source "checkpoint"`)
	}
	c.DecodeWorkers, c.History, c.MaxAttrs = 0, 0, 0
	kind := sourceKinds[c.Source]
	if kind == nil {
		return fmt.Errorf("%sunknown source %q (want %q, %q, %q, %q or %q)",
			where, c.Source, SourceSynth, SourceMRT, SourceRISLive, SourceBGP, SourceCheckpoint)
	}
	if f := c.foreignField(kind.owns); f != "" {
		return fmt.Errorf("%s%q is not valid with source %q", where, f, c.Source)
	}
	if err := kind.check(c); err != nil {
		return fmt.Errorf("%s%w", where, err)
	}
	if kind.live() && c.DaysPerSec != 0 {
		return errors.New("days_per_sec paces replays; live sources run at feed speed")
	}
	if c.DaysPerSec < 0 {
		return errors.New("days_per_sec must be >= 0")
	}
	if c.Shards < 0 {
		return errors.New("shards must be >= 0")
	}
	if c.EventBuffer < 0 {
		return errors.New("event_buffer must be >= 0")
	}
	// Bound the allocation-driving knobs: these come from untrusted
	// request bodies, and a single huge value would defeat the
	// deployment limits (shards allocates goroutines+channels,
	// event_buffer allocates per subscriber).
	if c.Shards > MaxShards {
		return fmt.Errorf("shards must be <= %d", MaxShards)
	}
	if c.EventBuffer > MaxEventBuffer {
		return fmt.Errorf("event_buffer must be <= %d", MaxEventBuffer)
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = 1024
	}
	return nil
}

// overlaid returns the checkpointed (already normalized) config c under
// a restore request's ID, start flag, checkpoint and the knobs it sets.
func (c ScenarioConfig) overlaid(req ScenarioConfig) ScenarioConfig {
	c.ID, c.Start, c.Checkpoint = req.ID, req.Start, req.Checkpoint
	if req.Shards != 0 {
		c.Shards = req.Shards
	}
	if req.DaysPerSec != 0 {
		c.DaysPerSec = req.DaysPerSec
	}
	if req.EventBuffer != 0 {
		c.EventBuffer = req.EventBuffer
	}
	return c
}

// DefaultID returns the ID the registry would derive for this config if
// none were given (before collision suffixing). moasd pins its boot
// scenarios to it so that after a crash recovery the boot flag collides
// with the recovered scenario — and is skipped — instead of silently
// auto-suffixing a duplicate replay.
func (c *ScenarioConfig) DefaultID() string {
	if ck := c.Checkpoint; ck != nil {
		base := ck.Config.ID
		if base == "" {
			base = ck.Config.DefaultID()
		}
		// The embedded config is untrusted input; keep only the runes
		// every other ID path allows (IDs appear raw in URL paths).
		if base = cleanID(base); base == "" {
			return "restored"
		}
		return base + "-restored"
	}
	if kind := sourceKinds[c.Source]; kind != nil {
		return kind.defaultID(c)
	}
	return c.Scale // source not yet defaulted to synth
}
