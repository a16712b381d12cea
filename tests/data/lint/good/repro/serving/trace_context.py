"""Known-good trace-context fixture: future resolutions happen next to
the trace context, so OBS-303 stays silent (as does every other
rule)."""


def complete(request, result, tracer, now):
    emit_request_trace(  # noqa: F821
        tracer, request, now, "ok"
    )
    request.future.set_result(result)


def fail(request, error, registry, tracer, now):
    registry.counter("serving_fleet_failed_total").inc()
    emit_request_trace(  # noqa: F821
        tracer, request, now, "failed", detail=str(error)
    )
    request.future.set_exception(error)
