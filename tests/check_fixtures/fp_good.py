# repro: module=repro.exec.fixture_fp_good
"""Complete fingerprint + benign plumbing; must stay at zero fp-* findings."""


def fingerprint(config, tuning):
    return ("v1", config, tuning)


def compute(config, tuning):
    return (config, tuning)


def warm(cache, config, tuning, retries=3):
    if retries:
        cache.put(fingerprint(config, tuning), compute(config, tuning))
    return retries
