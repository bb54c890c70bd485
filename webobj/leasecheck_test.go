//go:build leasecheck

package webobj_test

func init() { leaseCheck = true }
