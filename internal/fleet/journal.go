package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The fleet shard journal: a crash-safe record of completed shard
// reductions (see internal/journal). The header pins the run geometry —
// a digest of the whole population model, seed, device count, shard count
// — and every line after it is one shard's full Aggregate, appended and
// fsync'd the moment the shard finishes. Shards complete in worker order,
// but merge order is always shard-index order, so a run killed mid-flight
// and resumed with -resume merges journaled shards with freshly-run ones
// into the exact aggregate an uninterrupted run produces: sketches
// serialize as integer bucket counts and floats in Go's shortest
// round-trip form, so nothing is lost crossing the file.
//
// A journal whose header does not match the requested geometry belongs to
// a different run; resume refuses its entries (with a warning) and starts
// the journal over rather than merge incompatible shards.

// journalHeader pins the geometry a journal's shard entries belong to.
type journalHeader struct {
	Journal    string `json:"journal"`
	Population string `json:"population"`
	Digest     string `json:"digest"` // sha256 of the Population's JSON
	Seed       int64  `json:"seed"`
	Devices    int    `json:"devices"`
	Shards     int    `json:"shards"`
}

// shardEntry is one completed shard's reduction.
type shardEntry struct {
	Shard int        `json:"shard"`
	Agg   *Aggregate `json:"agg"`
}

// wellFormed guards a decoded aggregate against nil sketches from a
// truncated or foreign journal entry.
func (a *Aggregate) wellFormed() bool {
	if a.Residual == nil || a.SessionMin == nil || a.StartMin == nil {
		return false
	}
	for _, m := range []map[string]*GroupAgg{a.ByClass, a.ByBehavior} {
		//odylint:allow mapiter order-independent predicate: false iff any entry is nil, whatever the visit order
		for _, g := range m {
			if g == nil || g.Residual == nil {
				return false
			}
		}
	}
	//odylint:allow mapiter order-independent predicate: false iff any entry is nil, whatever the visit order
	for _, p := range a.ByPrincipal {
		if p == nil {
			return false
		}
	}
	return true
}

// decodeShard parses one journal line, rejecting a malformed aggregate or
// a shard outside the geometry.
func decodeShard(line []byte, shards int) (shardEntry, error) {
	var e shardEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return e, err
	}
	if e.Agg == nil || !e.Agg.wellFormed() {
		return e, errors.New("malformed shard entry")
	}
	if e.Shard < 0 || e.Shard >= shards {
		return e, fmt.Errorf("shard %d outside geometry", e.Shard)
	}
	return e, nil
}
