from hypothesis import HealthCheck, settings

# Every example evaluates in closed form and takes a few ms, but that time
# follows host load; no deadline keeps a busy host from failing a run.
# derandomize keeps runs identical.
settings.register_profile(
    "monometric",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("monometric")
