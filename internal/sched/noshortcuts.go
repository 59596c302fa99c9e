//go:build noshortcuts

package sched

// Shortcuts is false: this build simulates every slice (see
// shortcuts.go).
const Shortcuts = false
