//go:build odysseydebug

package experiment

// debugBuild reports whether the odysseydebug assertions are compiled in.
// They flush the accountant's batched component ledger on every segment,
// which regroups its float sums: component energies then differ in their
// last bits from a default build, while totals and principals do not.
const debugBuild = true
