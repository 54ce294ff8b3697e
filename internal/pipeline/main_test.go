package pipeline

import (
	"testing"

	"asv/internal/testkit"
)

// TestMain fails the package if its tests leave a goroutine running: every
// goroutine this package starts must be joined by a Close, Wait or drain.
func TestMain(m *testing.M) { testkit.MainNoLeaks(m) }
