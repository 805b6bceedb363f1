package env

import (
	"slices"
	"strconv"
	"testing"
)

// TestFidelityLadder: a ladder starts at its top level, clamps directed
// levels to both ends, and operates a lying process at its reported level
// plus the lie, clamped to the ladder, while still reporting the directed
// level.
func TestFidelityLadder(t *testing.T) {
	f := NewFidelity([]int{10, 20, 30}, strconv.Itoa)
	if got := f.Levels(); !slices.Equal(got, []string{"10", "20", "30"}) {
		t.Fatalf("level names %v", got)
	}
	if f.Level() != 2 || f.Operating() != 30 {
		t.Fatalf("new ladder at level %d operating %d, want the top (2, 30)", f.Level(), f.Operating())
	}
	for _, tc := range []struct {
		set, level int
		lie        int
		operating  int
	}{
		{set: -5, level: 0, operating: 10},
		{set: 9, level: 2, operating: 30},
		{set: 1, level: 1, operating: 20},
		{set: 0, level: 0, lie: 1, operating: 20},
		{set: 0, level: 0, lie: 5, operating: 30},
		{set: 0, level: 0, lie: -1, operating: 10},
		{set: 2, level: 2, lie: 1, operating: 30},
		{set: 2, level: 2, lie: -1, operating: 20},
		{set: 2, level: 2, lie: -5, operating: 10},
	} {
		f.Health.SetLieDelta(tc.lie)
		f.SetLevel(tc.set)
		if f.Level() != tc.level || f.Operating() != tc.operating {
			t.Errorf("SetLevel(%d) with lie %+d: level %d operating %d, want %d operating %d",
				tc.set, tc.lie, f.Level(), f.Operating(), tc.level, tc.operating)
		}
	}
}

// TestLevelOf: the warden lookup clamps a handle's fidelity to the ladder.
func TestLevelOf(t *testing.T) {
	ladder := []string{"low", "mid", "high"}
	for level, want := range map[int]string{-1: "low", 0: "low", 1: "mid", 2: "high", 3: "high", 99: "high"} {
		if got := LevelOf(ladder, level); got != want {
			t.Errorf("LevelOf(%d) = %q, want %q", level, got, want)
		}
	}
}
