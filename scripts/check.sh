#!/usr/bin/env sh
# check.sh - the repo's standing verification gate, mirrored by CI
# (.github/workflows/ci.yml). Run it from anywhere inside the module.
#
#   scripts/check.sh         full suite
#   scripts/check.sh fast    gates 1-6, 8 and 17 (quick pre-commit loop)
#
# Gates, in order:
#   1. go build ./...                      everything compiles
#   2. go vet ./...                        stock static analysis
#   3. gofmt -l .                          every Go file is gofmt-clean
#   4. odylint -json ./...                 domain-specific invariants
#                                          (determinism taint, map-iteration
#                                          order, hot-path allocations, float
#                                          equality, kernel handshake, panics,
#                                          errors); fails on any finding,
#                                          including a malformed
#                                          //odylint:allow directive (the one
#                                          escape hatch); report:
#                                          odylint-report.json
#   5. go test ./...                       tier-1 tests
#   6. bench module vet + test             the benchmark module (bench/, its
#                                          own go.mod) still compiles against
#                                          the root APIs and its tests pass
#   7. go test -race ./...                 data-race gate over the full module
#   8. go test -tags odysseydebug ./...    energy-conservation runtime
#                                          assertions cross-checking the
#                                          exact integrator on every
#                                          segment, over the whole module
#                                          (every plane, adversarial
#                                          scenarios included; a new
#                                          package is covered without
#                                          editing this gate)
#   9. go test -fuzz                       short fuzz budgets (seed corpus + 5s
#                                          each) over odfs path handling
#                                          (FuzzPathHandling), journal replay
#                                          (FuzzJournalReplay), PowerScope
#                                          sample correlation (FuzzCorrelate),
#                                          the chaos scenario loader
#                                          (FuzzLoadScenario), fault-plan
#                                          decode and binding (FuzzPlanSpec),
#                                          the fleet sketch decoder
#                                          (FuzzSketchJSON), the
#                                          specialised powers of the energy
#                                          monitor and SmartBattery against
#                                          math.Pow (FuzzSpecialisedPow) and
#                                          the kernel's timers, cancels,
#                                          sleeps, wakes and ticker starts
#                                          and stops against its pure-heap
#                                          reference (FuzzScheduleMix)
#  10. odyssey-sim -figure resilience      smoke: the fault-injection plane
#                                          end to end on one trial
#  11. supervision smoke (-race)           the application-supervision plane
#                                          end to end under the mid
#                                          misbehavior ladder
#  12. parallel equivalence smoke          the whole -figure all pass (every
#                                          figure computing at once on one
#                                          task budget, the scorecard reading
#                                          the figures' runs) at -parallel 4
#                                          under -race must be byte-identical
#                                          to serial
#  13. chaos smoke + corpus replay         a bounded soak (fixed seed, 20
#                                          scenarios) under -race must pass
#                                          every invariant sentinel, and
#                                          every previously-failing scenario
#                                          in the regression corpus must
#                                          replay clean
#  14. containment smoke                   a -race soak over the containment
#                                          corpus (planted process-panic and
#                                          livelock scenarios among healthy
#                                          ones) must finish and exit 1; the
#                                          report and kill-and-resume checks
#                                          are the Go test
#                                          TestContainmentCorpusSoakAndResume
#  15. fleet smoke + determinism replay    a 600-session -race fleet soak
#                                          must produce a scorecard
#                                          byte-identical to a serial
#                                          replay of the same seed, and a
#                                          shard journal truncated mid-run
#                                          must -resume to the same bytes
#  16. profile smoke                       odyssey-chaos -cpuprofile writes a
#                                          profile go tool pprof reads, and
#                                          the soak's stdout is byte-identical
#                                          to the same run without the flag
#  17. bench goldens                       bash bench/run.sh --workload <w>
#                                          --seconds 1 for chaos-soak, fleet,
#                                          long-session and figures: each run
#                                          completes its golden op prefix and
#                                          exits 1 with "golden digest
#                                          mismatch" when its output moved
#
# After the gates pass, in a git checkout, it prints ROADMAP item 4's size
# metric: the line count of the non-test Go outside bench/ and testdata/.
#
# A change meant to move simulated output re-blesses bench/golden.json
# (bash bench/run.sh --bless) in a benchmark PR, and says why in
# CHANGES.md.
#
# battery-goal's determinism checks (same-seed runs byte-identical, a
# disarmed run free of supervision and offload output, an armed run
# reporting the offload principal) are Go tests in cmd/battery-goal, run by
# gates 5 and 7.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || {
    echo "FAIL: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
}

echo "==> odylint -json ./..."
go run ./cmd/odylint -json ./... > odylint-report.json || {
    echo "FAIL: odylint found findings (details in odylint-report.json)" >&2
    exit 1
}

echo "==> go test ./..."
go test ./...

echo "==> bench module (go vet + go test in bench/)"
(cd bench && go vet ./... && go test ./...)

if [ "${1:-}" != "fast" ]; then
    echo "==> go test -race ./..."
    go test -race ./...
fi

echo "==> go test -tags odysseydebug ./..."
go test -tags odysseydebug ./...

if [ "${1:-}" != "fast" ]; then
    echo "==> go test -fuzz FuzzPathHandling -fuzztime 5s ./internal/odfs"
    go test -run '^$' -fuzz FuzzPathHandling -fuzztime 5s ./internal/odfs

    echo "==> go test -fuzz FuzzJournalReplay -fuzztime 5s ./internal/journal"
    go test -run '^$' -fuzz FuzzJournalReplay -fuzztime 5s ./internal/journal

    echo "==> go test -fuzz FuzzCorrelate -fuzztime 5s ./internal/powerscope"
    go test -run '^$' -fuzz FuzzCorrelate -fuzztime 5s ./internal/powerscope

    echo "==> go test -fuzz FuzzLoadScenario -fuzztime 5s ./internal/chaos"
    go test -run '^$' -fuzz FuzzLoadScenario -fuzztime 5s ./internal/chaos

    echo "==> go test -fuzz FuzzPlanSpec -fuzztime 5s ./internal/faults"
    go test -run '^$' -fuzz FuzzPlanSpec -fuzztime 5s ./internal/faults

    echo "==> go test -fuzz FuzzSketchJSON -fuzztime 5s ./internal/fleet"
    go test -run '^$' -fuzz FuzzSketchJSON -fuzztime 5s ./internal/fleet

    echo "==> go test -fuzz FuzzSpecialisedPow -fuzztime 5s ./internal/power"
    go test -run '^$' -fuzz FuzzSpecialisedPow -fuzztime 5s ./internal/power

    echo "==> go test -fuzz FuzzScheduleMix -fuzztime 5s ./internal/sim"
    go test -run '^$' -fuzz FuzzScheduleMix -fuzztime 5s ./internal/sim

    echo "==> resilience smoke (odyssey-sim -figure resilience -trials 1)"
    go run ./cmd/odyssey-sim -figure resilience -trials 1

    echo "==> supervision smoke (-race, mid misbehavior ladder)"
    go run -race ./cmd/odyssey-sim -figure supervision -misbehave mid

    echo "==> parallel equivalence smoke (-figure all, -race)"
    smokedir=$(mktemp -d)
    trap 'rm -rf "$smokedir"' EXIT
    go run ./cmd/odyssey-sim -figure all -trials 2 -parallel 1 -csv > "$smokedir/serial.csv"
    go run -race ./cmd/odyssey-sim -figure all -trials 2 -parallel 4 -csv > "$smokedir/parallel.csv"
    cmp "$smokedir/serial.csv" "$smokedir/parallel.csv" || {
        echo "FAIL: -parallel 4 output differs from serial" >&2; exit 1; }

    echo "==> chaos smoke (-race, 20 scenarios, fixed seed) + corpus replay"
    go run -race ./cmd/odyssey-chaos -soak 20 -seed 7 -out "$smokedir/chaos-failures"
    go run ./cmd/odyssey-chaos -corpus internal/chaos/testdata/corpus -v

    echo "==> containment smoke (-race, planted panic + livelock)"
    status=0
    go run -race ./cmd/odyssey-chaos -soak-corpus internal/chaos/testdata/containment \
        -out "$smokedir/quarantine" > /dev/null || status=$?
    [ "$status" -eq 1 ] || {
        echo "FAIL: containment soak exited $status, want 1 (exactly the two planted failures)" >&2; exit 1; }

    echo "==> fleet smoke (-race, 600 sessions) + fixed-seed determinism replay"
    go run -race ./cmd/odyssey-fleet -devices 600 -seed 7 -parallel 4 \
        -journal "$smokedir/fleet.jsonl" > "$smokedir/fleet_race.txt"
    go run ./cmd/odyssey-fleet -devices 600 -seed 7 -parallel 1 > "$smokedir/fleet_serial.txt"
    cmp "$smokedir/fleet_race.txt" "$smokedir/fleet_serial.txt" || {
        echo "FAIL: fleet scorecard differs across parallelism/replay" >&2; exit 1; }
    # Fleet kill-and-resume: head -21 keeps the journal header plus 20
    # shard entries; with a torn line appended, the resumed scorecard must
    # be byte-identical.
    head -21 "$smokedir/fleet.jsonl" > "$smokedir/fleet_cut.jsonl"
    printf '{"shard":63,"agg":{' >> "$smokedir/fleet_cut.jsonl"
    go run ./cmd/odyssey-fleet -devices 600 -seed 7 -parallel 4 \
        -journal "$smokedir/fleet_cut.jsonl" -resume > "$smokedir/fleet_resumed.txt"
    cmp "$smokedir/fleet_race.txt" "$smokedir/fleet_resumed.txt" || {
        echo "FAIL: resumed fleet scorecard differs from the uninterrupted one" >&2; exit 1; }

    echo "==> profile smoke (odyssey-chaos -cpuprofile: readable profile, unchanged stdout)"
    go run ./cmd/odyssey-chaos -soak 20 -seed 1 -out "$smokedir/prof-plain" \
        > "$smokedir/prof_plain.txt" 2> "$smokedir/prof_plain.log"
    go run ./cmd/odyssey-chaos -soak 20 -seed 1 -out "$smokedir/prof-cpu" \
        -cpuprofile "$smokedir/cpu.out" > "$smokedir/prof_cpu.txt" 2> "$smokedir/prof_cpu.log"
    cmp "$smokedir/prof_plain.txt" "$smokedir/prof_cpu.txt" || {
        echo "FAIL: -cpuprofile changed the soak's stdout" >&2; exit 1; }
    go tool pprof -top "$smokedir/cpu.out" > /dev/null || {
        echo "FAIL: go tool pprof cannot read the -cpuprofile output" >&2; exit 1; }

fi

echo "==> bench goldens (bench/run.sh --seconds 1: chaos-soak, fleet, long-session, figures)"
for w in chaos-soak fleet long-session figures; do
    bash bench/run.sh --workload "$w" --seconds 1 > /dev/null || {
        echo "FAIL: bench workload $w failed its golden digest or an op (see the bench: lines above)" >&2; exit 1; }
done

echo "ALL CHECKS PASSED"

if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    lines=$(git ls-files '*.go' | grep -v -e '^bench/' -e '/testdata/' -e '_test.go$' | xargs cat | wc -l)
    echo "non-test Go lines outside bench/ and testdata/: $lines"
fi
