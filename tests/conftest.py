from hypothesis import settings

# Property tests draw their examples deterministically, so every run of the
# suite checks the same cases and stays fast.
settings.register_profile(
    "ews", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("ews")
