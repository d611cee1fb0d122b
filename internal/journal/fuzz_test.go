package journal_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cellbe/internal/core"
	"cellbe/internal/journal"
)

// FuzzJournalReplay writes arbitrary bytes as the journal file and
// reopens it: replay must never panic, and whatever it returns as
// resumable must be safe to hand to the scheduler's spec decoder. The
// corpus starts from the shapes journal_test.go builds: a healthy file,
// a torn tail and a re-journaled (dedup) key.
func FuzzJournalReplay(f *testing.F) {
	spec, err := core.MarshalSpec(core.SweepSpec{Scenario: "cycle", SPEs: 4, Chunks: []int{4096}, Seeds: []int64{0, 1}, Volume: 1 << 17})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	jid, _ := j.AppendJob(spec)
	j.AppendPoint(jid, "k1", journal.PointRecord{Chunk: 4096, Seed: 0, Cycles: 4196, GBps: 1.5, Attempts: 1})
	j.AppendPoint(jid, "k1", journal.PointRecord{Chunk: 4096, Seed: 0, Cycles: 4196, GBps: 1.5, Attempts: 3})
	j.AppendPoint(jid, "k2", journal.PointRecord{Chunk: 4096, Seed: 1, Error: "sim: deadlock", Code: "deadlock"})
	done, _ := j.AppendJob(json.RawMessage(`{}`))
	j.AppendDone(done)
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	healthy, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	f.Add(append(healthy, `{"t":"point","job":"`+jid+`","key":"k3","res":{"chu`...))
	f.Add([]byte(`{"t":"job","id":"j9","spec":{"Scenario":7}}` + "\n" + `{"t":"done","id":"j9"}` + "\n" + `{"t":"job","id":"j10","spec":[]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journal.FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return
		}
		defer j.Close()
		for _, jr := range st.Incomplete() {
			core.UnmarshalSpec(jr.Spec) // an error is fine; a panic is not
		}
	})
}
