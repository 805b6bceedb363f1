package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

type header struct {
	Journal string `json:"journal"`
	Seed    int    `json:"seed"`
}

type entry struct {
	I int `json:"i"`
}

var hdr = header{Journal: "test/v1", Seed: 1}

// collect opens path with a replay that records every entry index, and
// returns the writer, the replayed indices, and the warnings.
func collect(t *testing.T, path string, h header, resume bool) (*Writer, []int, []string) {
	t.Helper()
	var got []int
	w, warnings, err := Open(path, h, resume, func(line []byte) error {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.I < 0 {
			return errors.New("negative index")
		}
		got = append(got, e.I)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, got, warnings
}

func appendAll(t *testing.T, w *Writer, is ...int) {
	t.Helper()
	for _, i := range is {
		if err := w.Append(entry{I: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestResumeReplaysEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, got, warnings := collect(t, path, hdr, true) // missing file: fresh journal
	if len(got) != 0 || len(warnings) != 0 {
		t.Fatalf("fresh journal replayed %v, warned %v", got, warnings)
	}
	appendAll(t, w, 0, 1)
	w, got, warnings = collect(t, path, hdr, true)
	if fmt.Sprint(got) != "[0 1]" || len(warnings) != 0 {
		t.Fatalf("resume replayed %v, warned %v; want [0 1] and no warnings", got, warnings)
	}
	appendAll(t, w, 2)
	if want := `{"journal":"test/v1","seed":1}` + "\n" + `{"i":0}` + "\n" + `{"i":1}` + "\n" + `{"i":2}` + "\n"; read(t, path) != want {
		t.Fatalf("journal bytes:\n%s\nwant:\n%s", read(t, path), want)
	}
}

func TestHeaderMismatchRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, _ := collect(t, path, hdr, false)
	appendAll(t, w, 0, 1)
	other := header{Journal: "test/v1", Seed: 2}
	w, got, warnings := collect(t, path, other, true)
	if len(got) != 0 {
		t.Fatalf("mismatched header replayed %v", got)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "does not match run geometry") {
		t.Fatalf("mismatched header warnings %v", warnings)
	}
	appendAll(t, w, 5)
	if want := `{"journal":"test/v1","seed":2}` + "\n" + `{"i":5}` + "\n"; read(t, path) != want {
		t.Fatalf("restarted journal:\n%s\nwant:\n%s", read(t, path), want)
	}
}

func TestTornTailSkippedThenCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, _ := collect(t, path, hdr, false)
	appendAll(t, w, 0, 1)
	appendRaw(t, path, `{"i":2`)
	w, got, warnings := collect(t, path, hdr, true)
	if fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("resume over a torn tail replayed %v, want [0 1]", got)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "line 4: skipping torn final line") {
		t.Fatalf("torn tail warnings %v", warnings)
	}
	appendAll(t, w, 2)
	_, got, warnings = collect(t, path, hdr, true)
	if fmt.Sprint(got) != "[0 1 2]" || len(warnings) != 0 {
		t.Fatalf("second resume replayed %v, warned %v; want [0 1 2] and no warnings", got, warnings)
	}
}

func TestRejectedLinesWarn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, _ := collect(t, path, hdr, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, `{"i":0}`+"\n"+`not json`+"\n\n"+`{"i":-1}`+"\n"+`{"i":3}`+"\n")
	_, got, warnings := collect(t, path, hdr, true)
	if fmt.Sprint(got) != "[0 3]" {
		t.Fatalf("replayed %v, want [0 3]", got)
	}
	want := []string{"line 3: skipping entry: not JSON", "line 5: skipping entry: negative index"}
	if len(warnings) != len(want) {
		t.Fatalf("warnings %v, want %d", warnings, len(want))
	}
	for i := range want {
		if !strings.Contains(warnings[i], want[i]) {
			t.Errorf("warning %q missing %q", warnings[i], want[i])
		}
	}
}

func TestOpenWithoutResumeTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, _ := collect(t, path, hdr, false)
	appendAll(t, w, 0, 1)
	w, got, warnings := collect(t, path, hdr, false)
	if len(got) != 0 || len(warnings) != 0 {
		t.Fatalf("non-resume open replayed %v, warned %v", got, warnings)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := `{"journal":"test/v1","seed":1}` + "\n"; read(t, path) != want {
		t.Fatalf("non-resume open left:\n%s", read(t, path))
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, _ := collect(t, path, hdr, false)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Append(entry{I: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, warnings := collect(t, path, hdr, true)
	if len(warnings) != 0 {
		t.Fatalf("concurrent appends left malformed lines: %v", warnings)
	}
	sort.Ints(got)
	for i := 0; i < n; i++ {
		if i >= len(got) || got[i] != i {
			t.Fatalf("replayed %v, want 0..%d once each", got, n-1)
		}
	}
}

func TestResumeCommand(t *testing.T) {
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = []string{"tool", "-journal", "j"}
	if got := ResumeCommand(); got != "tool -journal j -resume" {
		t.Errorf("ResumeCommand() = %q", got)
	}
	os.Args = []string{"tool", "-journal", "j", "-resume"}
	if got := ResumeCommand(); got != "tool -journal j -resume" {
		t.Errorf("ResumeCommand() with -resume = %q", got)
	}
}

// FuzzJournalReplay: arbitrary file contents never panic Open, and an entry
// appended after a resume is always replayed by the next one.
func FuzzJournalReplay(f *testing.F) {
	head := `{"journal":"test/v1","seed":1}` + "\n"
	for _, seed := range []string{
		"", head, head + `{"i":0}` + "\n", head + `{"i":0}` + "\n" + `{"i":1`,
		head + "garbage\n\n" + `{"i":-1}` + "\n", `{"journal":"other"}` + "\n" + `{"i":0}` + "\n",
		head[:10], "\n\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, first, _ := collect(t, path, hdr, true)
		appendAll(t, w, 1_000_000)
		_, second, _ := collect(t, path, hdr, true)
		if len(second) != len(first)+1 || second[len(second)-1] != 1_000_000 {
			t.Fatalf("entry appended after resume not replayed: first %v, second %v", first, second)
		}
	})
}
