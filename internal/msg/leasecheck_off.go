//go:build !leasecheck

package msg

// leaseCheck is off: a released message and frame go back to their pools.
const leaseCheck = false
