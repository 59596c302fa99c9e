package soc

import (
	"errors"
	"fmt"
	"time"
)

// RPCParams are the FastRPC offload-transport costs of a platform
// (paper Fig. 7): session setup happens once per process, each call pays
// two kernel crossings plus cache maintenance proportional to the buffer.
type RPCParams struct {
	// SessionSetup maps the DSP into the application process (once).
	SessionSetup time.Duration
	// KernelCrossing is one user→kernel→driver traversal; a call makes
	// two round trips (submit and completion signal).
	KernelCrossing time.Duration
	// CacheFlushPerKB maintains coherency for shared buffers.
	CacheFlushPerKB time.Duration
	// DSPWakeup is the co-processor's dispatch latency per invocation.
	DSPWakeup time.Duration
}

// SoC describes one Table-II platform.
type SoC struct {
	Name    string // product name, e.g. "Google Pixel 3"
	Chipset string // e.g. "Snapdragon 845"
	GPUName string // e.g. "Adreno 630"
	DSPName string // e.g. "Hexagon 685"

	BigCores    int
	LittleCores int
	Big         Device
	Little      Device
	GPU         Device
	DSP         Device

	RPC RPCParams

	// IdleTempC is the idle CPU temperature the paper cools to (§III-D).
	IdleTempC float64
}

// Devices returns the SoC's devices for iteration.
func (s *SoC) Devices() []*Device {
	return []*Device{&s.Big, &s.Little, &s.GPU, &s.DSP}
}

// Validate sanity-checks the platform description. Every failure wraps
// ErrBadSpec, so callers branch with errors.Is — the same typed-error
// contract Spec.Validate follows.
func (s *SoC) Validate() error {
	if s.BigCores <= 0 || s.LittleCores < 0 {
		return fmt.Errorf("%w: %s has invalid core counts", ErrBadSpec, s.Name)
	}
	for _, d := range s.Devices() {
		if d.FP32OpsPerSec <= 0 || d.Int8OpsPerSec <= 0 || d.ScalarOpsPerSec <= 0 || d.MemBytesPerSec <= 0 {
			return fmt.Errorf("%w: %s device %s has unset throughput", ErrBadSpec, s.Name, d.Name)
		}
	}
	if s.RPC.SessionSetup <= 0 || s.RPC.KernelCrossing <= 0 {
		return fmt.Errorf("%w: %s has unset RPC params", ErrBadSpec, s.Name)
	}
	return nil
}

// snapdragon builds one platform generation from its declarative spec.
// gen scales device throughput across the SD835→SD865 range (~18% per
// generation, matching the flagship cadence); the derivation formulas
// live in Spec.Build, shared with every fleet-catalog entry.
func snapdragon(name, chipset, gpu, dsp string, bigGHz, littleGHz, gen float64) *SoC {
	return tableIISpec(name, chipset, gpu, dsp, bigGHz, littleGHz, gen).MustBuild()
}

// Table-II platform constructors.

// OpenQ835 returns the Open-Q 835 µSOM (Snapdragon 835).
func OpenQ835() *SoC {
	return snapdragon("Open-Q 835 uSOM", "Snapdragon 835", "Adreno 540", "Hexagon 682", 2.45, 1.90, 1.00)
}

// Pixel3 returns the Google Pixel 3 (Snapdragon 845) — the platform the
// paper reports results on.
func Pixel3() *SoC {
	return snapdragon("Google Pixel 3", "Snapdragon 845", "Adreno 630", "Hexagon 685", 2.80, 1.77, 1.18)
}

// SD855HDK returns the Snapdragon 855 HDK.
func SD855HDK() *SoC {
	return snapdragon("Snapdragon 855 HDK", "Snapdragon 855", "Adreno 640", "Hexagon 690", 2.84, 1.80, 1.39)
}

// SD865HDK returns the Snapdragon 865 HDK.
func SD865HDK() *SoC {
	return snapdragon("Snapdragon 865 HDK", "Snapdragon 865", "Adreno 650", "Hexagon 698", 2.84, 1.80, 1.64)
}

// Platforms returns all Table-II platforms in row order.
func Platforms() []*SoC {
	return []*SoC{OpenQ835(), Pixel3(), SD855HDK(), SD865HDK()}
}

// ErrUnknownPlatform is the sentinel PlatformByName wraps when no
// platform matches; callers branch with errors.Is instead of matching
// message text.
var ErrUnknownPlatform = errors.New("soc: unknown platform")

// PlatformByName finds a platform by product or chipset name.
func PlatformByName(name string) (*SoC, error) {
	for _, p := range Platforms() {
		if p.Name == name || p.Chipset == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownPlatform, name)
}
