package chaos

import (
	"encoding/json"
	"errors"
)

// The soak journal: a crash-safe record of per-scenario outcomes (see
// internal/journal), one JSON line per scenario, appended and fsync'd as
// each scenario finishes its full treatment (run, audit, shrink, save). A
// soak killed mid-run leaves a journal whose entries are complete; -resume
// replays them to skip finished work and, because every field the final
// report needs is in the entry, a resumed soak's report is byte-identical
// to an uninterrupted one.
//
// The header carries only the journal kind: entries are content-addressed
// instead. Each carries the scenario id its index mapped to, and resume
// ignores entries whose id no longer matches, so a journal reused across a
// seed or corpus change poisons nothing, and a shorter soak's journal seeds
// a longer one.

// journalHeader is the soak journal's first line.
var journalHeader = struct {
	Journal string `json:"journal"`
}{"chaos-soak/v1"}

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

// decodeEntry parses one journal line, rejecting a failed entry that lost
// its failure record.
func decodeEntry(line []byte) (journalEntry, error) {
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return e, err
	}
	if !e.OK && e.F == nil {
		return e, errors.New("failed entry with no failure record")
	}
	return e, nil
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
