//go:build race

package main

// raceEnabled is set when the race detector instruments the build.
const raceEnabled = true
