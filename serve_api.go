package asv

import (
	"time"

	"asv/internal/serve"
)

// Serving facade: re-exports of the internal/serve types that commands and
// external users need to run the stereo depth service. The load generator,
// cmd/asvload, is a client of serve's wire types only. See DESIGN.md §6
// "Serving architecture".

// ServeConfig parameterizes a depth server (queue depth, workers, session
// limits).
type ServeConfig = serve.Config

// ServeServer is the sessionful stereo depth HTTP service.
type ServeServer = serve.Server

// ServeSessionInfo is the JSON description of one serving session, as
// returned by session creation and listing.
type ServeSessionInfo = serve.SessionInfo

// DefaultServeConfig returns the server defaults.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewServeServer builds a depth server around matcher. Call Start to bind a
// listener and Close to drain.
func NewServeServer(matcher KeyMatcher, cfg ServeConfig) *ServeServer {
	return serve.New(matcher, cfg)
}

// NewPacedKeyMatcher wraps inner so every Match call takes at least
// frameTime, emulating an accelerator with a deterministic key-frame
// budget. asvserve's -paced-frame-ms flag uses it, and through that flag
// scripts/degrade_smoke.sh, to make overload scenarios reproducible on any
// host.
func NewPacedKeyMatcher(inner KeyMatcher, frameTime time.Duration) KeyMatcher {
	return serve.NewPacedKeyMatcher(inner, frameTime)
}
