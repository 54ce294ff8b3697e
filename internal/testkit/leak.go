package testkit

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// MainNoLeaks is the body of a package's TestMain: it runs the tests and
// then fails the package if they left goroutines behind. A goroutine that
// outlives every test is one no Close/Wait joined — the bug class of an
// unsupervised `go`, a WaitGroup.Done skipped on an error path, or a lock
// never released under a drainer (DESIGN.md §7) — observed at run time
// rather than inferred from source.
//
// The count must return to its pre-run baseline within two seconds of
// closing the default transport's idle keep-alive connections (each holds
// two goroutines by design); otherwise every goroutine's stack is printed.
// A `-fuzz` run is exempt: its coordinator installs an interrupt handler
// whose os/signal loop goroutine never exits, and it runs no test.
func MainNoLeaks(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	http.DefaultClient.CloseIdleConnections()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !settlesTo(base) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "testkit: goroutine leak: %d running after the tests, %d before\n\n%s\n",
			runtime.NumGoroutine(), base, buf)
		code = 1
	}
	os.Exit(code)
}

// settlesTo polls for up to two seconds for the goroutine count to fall to
// base: goroutines whose owner was closed by the last test may still be
// unwinding when m.Run returns.
func settlesTo(base int) bool {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}
