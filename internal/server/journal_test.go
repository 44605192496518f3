package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vpga/internal/faultinject"
)

func openTestJournal(t *testing.T, path string) (*journal, []journalEntry) {
	t.Helper()
	jn, entries, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	t.Cleanup(jn.close)
	return jn, entries
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "journal.wal")
	jn, entries := openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	body, _ := json.Marshal(map[string]string{"design": "alu"})
	appends := []journalEntry{
		{ID: "j000001", State: "accepted", Kind: "run", Key: "k1", Body: body},
		{ID: "j000001", State: "running"},
		{ID: "j000001", State: "done"},
		{ID: "j000002", State: "accepted", Kind: "matrix", Key: "k2", Body: body},
	}
	for _, e := range appends {
		if err := jn.append(e, e.State != "running"); err != nil {
			t.Fatalf("append %v: %v", e.State, err)
		}
	}
	jn.close()

	_, replayed := openTestJournal(t, path)
	if len(replayed) != len(appends) {
		t.Fatalf("replayed %d entries, want %d", len(replayed), len(appends))
	}
	for i, e := range replayed {
		if e.ID != appends[i].ID || e.State != appends[i].State || e.Kind != appends[i].Kind {
			t.Fatalf("entry %d: %+v", i, e)
		}
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d seq %d", i, e.Seq)
		}
	}
	if string(replayed[3].Body) != string(body) {
		t.Fatalf("body did not survive: %s", replayed[3].Body)
	}
}

// TestJournalTornTail: bytes chopped off the final frame — the crash
// artifact — cost exactly that frame; the intact prefix replays and the
// file is truncated back to it so appends resume cleanly.
func TestJournalTornTail(t *testing.T) {
	for _, chop := range []int{1, 5, 11} {
		path := filepath.Join(t.TempDir(), "journal.wal")
		jn, _ := openTestJournal(t, path)
		for i := 0; i < 3; i++ {
			if err := jn.append(journalEntry{ID: "j000001", State: "accepted"}, true); err != nil {
				t.Fatal(err)
			}
		}
		jn.close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-chop], 0o644); err != nil {
			t.Fatal(err)
		}

		jn2, entries := openTestJournal(t, path)
		if len(entries) != 2 {
			t.Fatalf("chop %d: replayed %d entries, want 2", chop, len(entries))
		}
		if jn2.corruptFrames == 0 {
			t.Fatalf("chop %d: torn tail not counted", chop)
		}
		// Appends resume from the clean boundary.
		if err := jn2.append(journalEntry{ID: "j000002", State: "accepted"}, true); err != nil {
			t.Fatal(err)
		}
		jn2.close()
		_, entries = openTestJournal(t, path)
		if len(entries) != 3 {
			t.Fatalf("chop %d: after resume replayed %d entries, want 3", chop, len(entries))
		}
	}
}

// TestJournalCorruptChecksum: a bit flip inside a frame's payload fails
// its CRC; replay keeps the intact prefix.
func TestJournalCorruptChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jn, _ := openTestJournal(t, path)
	for i := 0; i < 2; i++ {
		if err := jn.append(journalEntry{ID: "j000001", State: "accepted"}, true); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff // payload byte of the second frame
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries := openTestJournal(t, path)
	if len(entries) != 1 {
		t.Fatalf("replayed %d entries, want 1", len(entries))
	}
}

// TestJournalAppendFaultTruncatesBack: an injected torn append leaves
// the file byte-identical to before the attempt, and the retried append
// lands cleanly.
func TestJournalAppendFaultTruncatesBack(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	path := filepath.Join(t.TempDir(), "journal.wal")
	jn, _ := openTestJournal(t, path)
	if err := jn.append(journalEntry{ID: "j000001", State: "accepted"}, true); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.New(1, 1.0, []faultinject.Kind{faultinject.KindTorn}, "journal.append"))
	appendErr := jn.append(journalEntry{ID: "j000002", State: "accepted"}, true)
	if !errors.Is(appendErr, faultinject.ErrInjected) {
		t.Fatalf("injected append error: %v", appendErr)
	}
	faultinject.Disable()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("failed append mutated the journal: %d bytes -> %d", len(before), len(after))
	}
	if jn.errs.Load() != 1 {
		t.Fatalf("errs = %d", jn.errs.Load())
	}
	if err := jn.append(journalEntry{ID: "j000002", State: "accepted"}, true); err != nil {
		t.Fatal(err)
	}
	jn.close()
	_, entries := openTestJournal(t, path)
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
}

// TestJournalCompact: compaction rewrites the file to the given
// entries and the handle keeps appending past them.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jn, _ := openTestJournal(t, path)
	for i := 0; i < 5; i++ {
		if err := jn.append(journalEntry{ID: "j000001", State: "accepted"}, false); err != nil {
			t.Fatal(err)
		}
	}
	keep := []journalEntry{{Seq: 1, ID: "j000004", State: "accepted", Kind: "run", Key: "k"}}
	if err := jn.compact(keep); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := jn.append(journalEntry{ID: "j000004", State: "running"}, false); err != nil {
		t.Fatal(err)
	}
	jn.close()
	_, entries := openTestJournal(t, path)
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if entries[0].ID != "j000004" || entries[0].State != "accepted" {
		t.Fatalf("compacted entry: %+v", entries[0])
	}
	if entries[1].State != "running" {
		t.Fatalf("post-compact append: %+v", entries[1])
	}
}

func TestJournalNilSafe(t *testing.T) {
	var jn *journal
	if err := jn.append(journalEntry{ID: "x", State: "accepted"}, true); err != nil {
		t.Fatal(err)
	}
	jn.close()
}

// FuzzOpenJournal: replaying any bytes as a journal yields entries,
// never a panic, and never fails on a readable file. It leaves exactly
// the intact prefix behind: a second open replays the same entries
// with no torn frame. Every accepted entry's body parses to a spec or
// an error, as restart replay parses it.
func FuzzOpenJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "journal.wal")
	jn, _, err := openJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []journalEntry{
		{ID: "j000001", State: "accepted", Kind: "run", Key: "k1", Body: json.RawMessage(`{"design":"alu","seed":5}`)},
		{ID: "j000001", State: "running"},
		{ID: "j000001", State: "done"},
		{ID: "j000002", State: "accepted", Kind: "matrix", Key: "k2", Body: json.RawMessage(`{"seed":3,"place_effort":1}`)},
	} {
		if err := jn.append(e, false); err != nil {
			f.Fatal(err)
		}
	}
	jn.close()
	four, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(four)
	f.Add(four[:len(four)-5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("\x07\x00\x00\x00garbage, not a frame"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		jn, entries, err := openJournal(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		jn.f.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, kept) {
			t.Fatalf("replay kept %d bytes that are not a prefix of the %d written", len(kept), len(raw))
		}
		if (jn.corruptFrames == 0) != (len(kept) == len(raw)) {
			t.Fatalf("%d torn frames, but kept %d of %d bytes", jn.corruptFrames, len(kept), len(raw))
		}
		jn2, again, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		jn2.f.Close()
		if jn2.corruptFrames != 0 {
			t.Fatalf("the kept prefix replays with %d torn frames", jn2.corruptFrames)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("reopen replayed %d entries, the first open %d", len(again), len(entries))
		}
		for _, e := range entries {
			if e.State == "accepted" {
				parseSpec(e.Kind, e.Body)
			}
		}
	})
}
