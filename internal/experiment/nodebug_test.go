//go:build !odysseydebug

package experiment

const debugBuild = false
