package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2MatchesKernel cross-checks the CPUID probe against the flags the
// kernel publishes, where /proc/cpuinfo exists and lists them.
func TestAVX2MatchesKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || !strings.Contains(string(info), "\nflags") {
		t.Skip("no x86 /proc/cpuinfo flags on this host")
	}
	want := strings.Contains(string(info), " avx2")
	if AVX2 != want {
		t.Fatalf("probe says AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
	}
}
