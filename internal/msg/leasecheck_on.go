//go:build leasecheck

package msg

// leaseCheck is on (go test -tags leasecheck): a released message and frame
// are poisoned and never reused, so a use after Release reads garbage.
const leaseCheck = true
