//go:build leasecheck || race

package tcpnet

func init() { poolsRecycle = false }
