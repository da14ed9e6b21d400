package controller

import "ncfn/internal/telemetry"

// Control-plane instrument names. The supervisor and push helpers register
// these in whatever registry the embedding daemon or harness provides, so
// one snapshot covers both planes.
const (
	MetricRetryAttempts      = "controller_retry_attempts"
	MetricFailoversDone      = "controller_failovers_done"
	MetricFailoversAbandoned = "controller_failovers_abandoned"
	MetricFailoverNs         = "controller_failover_duration_ns"
	MetricApplyNs            = "controller_apply_latency_ns"
	SupervisorFlightName     = "controller_flight"
)

// supTelemetry is the supervisor's instrument set.
type supTelemetry struct {
	retries   *telemetry.Counter
	done      *telemetry.Counter
	abandoned *telemetry.Counter
	durations *telemetry.Histogram
	rec       *telemetry.Recorder
}

func newSupTelemetry(reg *telemetry.Registry) supTelemetry {
	return supTelemetry{
		retries:   reg.Counter(MetricRetryAttempts, 1),
		done:      reg.Counter(MetricFailoversDone, 1),
		abandoned: reg.Counter(MetricFailoversAbandoned, 1),
		durations: reg.Histogram(MetricFailoverNs),
		rec:       reg.Recorder(SupervisorFlightName, telemetry.DefaultRecorderCapacity),
	}
}
