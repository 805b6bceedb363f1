// Package journal is the crash-safe run journal of the batch planes (chaos
// soaks and fleet runs) — a JSON-lines file: a header naming the run, then
// one fsync'd line per completed unit of work — plus the SIGINT trap and
// resume command their CLIs share.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
)

// Writer appends entries to an open journal, one fsync'd line each, so an
// entry is either durably complete or a torn final line the next Open cuts.
// Append is safe for concurrent use.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens the journal at path for the run identified by hdr.
//
// With resume set and an existing journal whose first line equals
// json.Marshal(hdr), every later complete line is handed to replay in file
// order, the file is cut after its last newline (dropping a torn final
// line), and the Writer appends from there. Lines that are not JSON, and
// lines replay rejects, are skipped with a warning. In every other case —
// no resume, no file, or a header from a different run — the file is
// truncated and hdr written as its first line.
func Open(path string, hdr any, resume bool, replay func(line []byte) error) (*Writer, []string, error) {
	head, err := json.Marshal(hdr)
	if err != nil {
		return nil, nil, err
	}
	var keep int64 // bytes of the existing journal to keep; 0 starts it over
	var warnings []string
	if resume {
		if keep, warnings, err = scan(path, head, replay); err != nil {
			return nil, warnings, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, warnings, err
	}
	w := &Writer{f: f}
	// With O_APPEND every write lands at the end of the cut file.
	if err = f.Truncate(keep); err == nil && keep == 0 {
		err = w.writeLine(head)
	}
	if err != nil {
		_ = f.Close() // the truncate or write error is the one to report
		return nil, warnings, err
	}
	return w, warnings, nil
}

var errNotJSON = errors.New("not JSON")

// scan replays the journal at path if its first line is head, and returns
// its length through the last complete line; 0 means start it over.
func scan(path string, head []byte, replay func(line []byte) error) (int64, []string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	if got, _, ok := bytes.Cut(data, []byte{'\n'}); !ok || !bytes.Equal(got, head) {
		return 0, []string{fmt.Sprintf("journal %s: header %.200s does not match run geometry %s; starting the journal over",
			path, got, head)}, nil
	}
	keep := bytes.LastIndexByte(data, '\n') + 1
	var warnings []string
	for i, line := range bytes.Split(data[len(head)+1:keep], []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		err := errNotJSON
		if json.Valid(line) {
			err = replay(line)
		}
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping entry: %v", path, i+2, err))
		}
	}
	if keep < len(data) {
		warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping torn final line",
			path, bytes.Count(data, []byte{'\n'})+1))
	}
	return int64(keep), warnings, nil
}

// Append writes v as one JSON line and fsyncs it before returning, so the
// caller may publish the entry's work only once it is durable.
func (w *Writer) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.writeLine(b)
}

func (w *Writer) writeLine(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the journal file; every entry was fsync'd as it landed.
func (w *Writer) Close() error { return w.f.Close() }

// TrapInterrupt installs the SIGINT handler and returns a run's Stop poll.
// The first interrupt requests a graceful stop (unstarted units are
// skipped; in-flight ones finish and journal); the handler then detaches,
// so a second interrupt kills the process outright. units names the work
// in the notice, e.g. "scenarios" or "shards".
func TrapInterrupt(units string) func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintf(os.Stderr, "interrupt: finishing in-flight %s and flushing the journal (^C again to kill)\n", units)
		signal.Stop(ch)
	}()
	return stopped.Load
}

// ResumeCommand reconstructs the invocation that continues an interrupted
// run: the same command line plus -resume.
func ResumeCommand() string {
	cmd := strings.Join(os.Args, " ")
	for _, a := range os.Args {
		if a == "-resume" || a == "--resume" {
			return cmd
		}
	}
	return cmd + " -resume"
}
