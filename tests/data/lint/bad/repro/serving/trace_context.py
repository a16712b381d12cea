"""Known-bad trace-context fixture: OBS-303 must fire twice (two
functions that resolve a request future without ever touching the
trace context)."""


def complete(request, result):
    # Resolves the future straight past the tracer: the request
    # reaches its terminal state outside its trace.
    request.future.set_result(result)


def fail(request, error, registry):
    registry.counter("serving_fleet_failed_total").inc()
    request.future.set_exception(error)
