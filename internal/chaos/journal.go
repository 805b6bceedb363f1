package chaos

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// The soak journal: a crash-safe record of per-scenario outcomes, one JSON
// line per scenario, appended and fsync'd as each scenario finishes its
// full treatment (run, audit, shrink, save). A soak killed mid-run leaves a
// journal whose entries are complete; -resume replays them to skip finished
// work and, because every field the final report needs is in the entry, a
// resumed soak's report is byte-identical to an uninterrupted one.
//
// Entries are content-addressed: each carries the scenario id its index
// mapped to, and resume ignores entries whose id no longer matches (a
// journal reused across a seed or corpus change poisons nothing). A torn
// final line — the write the crash interrupted — is skipped with a warning.

// journalEntry is one completed scenario's outcome.
type journalEntry struct {
	I  int             `json:"i"`  // scenario index within the soak
	ID string          `json:"id"` // content address of the scenario at index I
	OK bool            `json:"ok"` // every sentinel passed
	F  *journalFailure `json:"failure,omitempty"`
}

// journalFailure carries everything Failure holds, in serializable form.
type journalFailure struct {
	Scenario   Scenario      `json:"scenario"`
	Report     Report        `json:"report"`
	Err        string        `json:"err,omitempty"`
	Shrunk     *ShrinkResult `json:"shrunk,omitempty"`
	Path       string        `json:"path,omitempty"`
	ShrunkPath string        `json:"shrunk_path,omitempty"`
	Repro      string        `json:"repro,omitempty"`
}

// failure reconstructs the in-memory Failure the entry was written from.
func (e *journalEntry) failure() Failure {
	f := Failure{
		Scenario:   e.F.Scenario,
		Report:     e.F.Report,
		Shrunk:     e.F.Shrunk,
		Path:       e.F.Path,
		ShrunkPath: e.F.ShrunkPath,
		Repro:      e.F.Repro,
	}
	if e.F.Err != "" {
		f.Err = errors.New(e.F.Err)
	}
	return f
}

// journalWriter appends entries to the journal file, one fsync'd line each,
// so an entry is either durably complete or (at worst) a torn final line
// the reader skips.
type journalWriter struct {
	f *os.File
}

func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

func (w *journalWriter) append(e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *journalWriter) close() error { return w.f.Close() }

// readJournal loads completed entries by index. The last entry for an index
// wins (a resumed soak appends; it never rewrites). Unparsable lines —
// normally only a torn final line from a crash mid-append — are skipped
// with a warning. A missing journal is an empty one.
func readJournal(path string) (map[int]journalEntry, []string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	done := make(map[int]journalEntry)
	var warnings []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping unparsable entry: %v", path, line, err))
			continue
		}
		if !e.OK && e.F == nil {
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping failed entry with no failure record", path, line))
			continue
		}
		done[e.I] = e
	}
	if err := sc.Err(); err != nil {
		return nil, warnings, err
	}
	return done, warnings, nil
}
