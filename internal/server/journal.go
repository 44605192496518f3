package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/faultinject"
	"vpga/internal/fsx"
)

// The job journal is the daemon's durable write-ahead log of job
// state transitions: every submission appends an "accepted" entry
// carrying the canonical request body, every outcome a "done" or
// "failed" entry. On restart the daemon replays the journal, rebuilds
// the jobs that never reached a terminal state, and re-enqueues them
// under their original IDs — so a SIGKILL mid-matrix costs wall time,
// never work or identity.
//
// Frame format, designed so a crash mid-append is detectable and
// recoverable: each entry is
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload (JSON)
//
// A torn tail — short header, length past EOF, or checksum mismatch —
// marks the clean end of replay: everything before it is intact
// (entries are only ever appended), everything from it on is the
// crash artifact and is truncated away.

// journalEntry is one logged state transition.
type journalEntry struct {
	Seq   int64  `json:"seq"`
	Time  string `json:"time,omitempty"`
	ID    string `json:"id"`
	State string `json:"state"` // "accepted", "running", "done", "failed"
	// Submission fields, populated on "accepted" only: everything
	// needed to rebuild the job after a crash.
	Kind string          `json:"kind,omitempty"`
	Key  string          `json:"key,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
	// A coordinator job's batch scheduling coordinates.
	Priority int    `json:"priority,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	// The distributed trace the job belongs to, kept across a restart.
	TraceID string `json:"trace_id,omitempty"`
	// Failure fields, populated on "failed" only.
	Error string `json:"error,omitempty"`
	Stage string `json:"stage,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame frames one entry payload.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	copy(out[8:], payload)
	return out
}

// journal is the open WAL: a single append handle plus counters.
type journal struct {
	path string

	mu  sync.Mutex
	f   *os.File
	seq int64

	appends, errs atomic.Int64
	lastFsync     atomic.Int64 // unix nanoseconds; 0 = never
	corruptFrames int64        // torn frames discarded at open
}

// openJournal opens (creating if needed) the journal at path and
// replays it: the returned entries are every intact frame in append
// order. A torn tail is truncated away — its frame count is recorded
// on journal.corruptFrames — so appends resume from a clean boundary.
func openJournal(path string) (*journal, []journalEntry, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: journal dir: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read journal: %w", err)
	}
	var (
		entries []journalEntry
		offset  int64 // end of the last intact frame
		torn    int64
		maxSeq  int64
	)
	for len(raw[offset:]) > 0 {
		rest := raw[offset:]
		if len(rest) < 8 {
			torn = 1
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if int(n) > len(rest)-8 {
			torn = 1
			break
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			torn = 1
			break
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			// A frame that passes its checksum but fails to parse is not
			// a crash artifact; still, replay salvages the intact prefix.
			torn = 1
			break
		}
		entries = append(entries, e)
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		offset += int64(8 + n)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	if offset < int64(len(raw)) {
		if err := f.Truncate(offset); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: seek journal: %w", err)
	}
	return &journal{path: path, f: f, seq: maxSeq, corruptFrames: torn}, entries, nil
}

// append logs one entry. fsync is requested on durability boundaries
// (accepted, done, failed) and skipped on progress notes (running). A
// failed append — injected or organic — truncates the file back to
// its pre-append length so the next append starts from a clean frame
// boundary (the daemon is the journal's only writer). The
// "journal.append" fault point fires here.
func (jn *journal) append(e journalEntry, fsync bool) error {
	if jn == nil {
		return nil
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	jn.seq++
	e.Seq = jn.seq
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	payload, err := json.Marshal(e)
	if err != nil {
		jn.errs.Add(1)
		return fmt.Errorf("server: encode journal entry: %w", err)
	}
	frame := encodeFrame(payload)
	pos, err := jn.f.Seek(0, io.SeekCurrent)
	if err != nil {
		jn.errs.Add(1)
		return fmt.Errorf("server: journal position: %w", err)
	}
	undo := func() {
		jn.f.Truncate(pos)
		jn.f.Seek(pos, io.SeekStart)
	}
	if flt := faultinject.Arm("journal.append"); flt != nil {
		if t := flt.TornBytes(frame); t != nil {
			jn.f.Write(t)
		}
		undo()
		jn.errs.Add(1)
		return fmt.Errorf("server: append journal: %w", flt.Err())
	}
	if _, err := jn.f.Write(frame); err != nil {
		undo()
		jn.errs.Add(1)
		return fmt.Errorf("server: append journal: %w", err)
	}
	if fsync {
		if err := jn.f.Sync(); err != nil {
			jn.errs.Add(1)
			return fmt.Errorf("server: sync journal: %w", err)
		}
		jn.lastFsync.Store(time.Now().UnixNano())
	}
	jn.appends.Add(1)
	return nil
}

// compact atomically rewrites the journal to hold only the given
// entries — the startup pass keeps just the accepted entries of jobs
// that never completed, so the file stays bounded by in-flight work
// instead of growing with history across restarts.
func (jn *journal) compact(entries []journalEntry) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	err := fsx.WriteFileAtomic(jn.path, 0o644, func(w io.Writer) error {
		for _, e := range entries {
			payload, err := json.Marshal(e)
			if err != nil {
				return fmt.Errorf("server: encode journal entry: %w", err)
			}
			if _, err := w.Write(encodeFrame(payload)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		jn.errs.Add(1)
		return err
	}
	// The append handle still points at the replaced inode; reopen onto
	// the published file, positioned at its end (append tracks the
	// write offset explicitly for truncate-back, so no O_APPEND).
	f, err := os.OpenFile(jn.path, os.O_WRONLY, 0o644)
	if err != nil {
		jn.errs.Add(1)
		return fmt.Errorf("server: reopen journal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		jn.errs.Add(1)
		return fmt.Errorf("server: seek journal: %w", err)
	}
	jn.f.Close()
	jn.f = f
	jn.lastFsync.Store(time.Now().UnixNano())
	return nil
}

func (jn *journal) close() {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	jn.f.Sync()
	jn.f.Close()
}
