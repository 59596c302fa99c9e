//go:build !noshortcuts

package sched

// Shortcuts reports whether the host-time shortcuts are compiled in:
// steady-state replay (Fingerprint) and running a burst alone at once
// (RunAlone). Neither moves a simulated byte. Building with the
// noshortcuts tag turns both off, so a test run with it proves every
// golden holds without them.
const Shortcuts = true
