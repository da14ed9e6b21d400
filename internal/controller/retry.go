package controller

import (
	"errors"
	"time"
)

// RetryPolicy bounds a control-plane RPC: per-attempt timeouts, a capped
// exponential backoff between attempts, and a total attempt budget. The
// paper's controller drives real cloud APIs (EC2 CLI, Linode API) whose
// launch and configuration calls fail transiently; the policy converts
// those into bounded, predictable retry behavior instead of indefinite
// blocking or immediate session failure.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 500 ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 8 s).
	MaxDelay time.Duration
	// Timeout bounds each individual attempt (default 10 s).
	Timeout time.Duration
}

// DefaultRetryPolicy matches the constants documented in DESIGN.md: four
// attempts, 500 ms base doubling to an 8 s cap, 10 s per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   500 * time.Millisecond,
		MaxDelay:    8 * time.Second,
		Timeout:     10 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	return p
}

// Backoff returns the delay before attempt n (n = 1 is the first retry):
// BaseDelay · 2^(n−1), capped at MaxDelay. Deterministic — no jitter — so
// chaos schedules replay identically under a fixed seed.
func (p RetryPolicy) Backoff(n int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 1; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	return min(d, p.MaxDelay)
}

// ErrRetriesExhausted wraps the last error after MaxAttempts failures.
var ErrRetriesExhausted = errors.New("controller: retries exhausted")
