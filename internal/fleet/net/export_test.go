package net

// StreamTelemetry is the body of GET /jobs/{id}/telemetry, for the bus
// tests.
var StreamTelemetry = streamTelemetry
