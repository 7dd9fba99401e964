"""Generator properties: determinism, dialect validity, knob coverage."""

from repro.difftest.generator import GenConfig, generate
from repro.frontend.lowering import lower_source


def test_same_seed_same_program():
    for seed in (0, 1, 17, 151, 9999):
        a = generate(seed)
        b = generate(seed)
        assert a.render() == b.render()
        assert a.feed == b.feed


def test_different_seeds_differ():
    sources = {generate(seed).render() for seed in range(20)}
    assert len(sources) > 15  # near-certain uniqueness


def test_generated_programs_lower_cleanly():
    for seed in range(25):
        prog = generate(seed)
        module = lower_source(prog.render(), filename=f"seed{seed}.c")
        assert len(module.functions) == 1


def test_config_changes_the_program():
    base = generate(5)
    no_kernel = generate(5, GenConfig(signed_kernel=False))
    assert base.render() != no_kernel.render()
    assert "sdk" not in no_kernel.render()


def test_no_asserts_config():
    for seed in range(10):
        prog = generate(seed, GenConfig(asserts=False))
        assert "assert(" not in prog.render()


def test_signed_kernel_always_present():
    # every default-config seed exercises the signed div/mod bug class
    for seed in range(10):
        src = generate(seed).render()
        assert "sdk = " in src and ("/ " in src or "% " in src)


def test_feed_bounds_respected():
    cfg = GenConfig(min_feed=3, max_feed=4)
    for seed in range(10):
        assert 3 <= len(generate(seed, cfg).feed) <= 4


def test_stmt_count_counts_nested():
    prog = generate(3)
    assert prog.stmt_count() >= len(prog.body)


def test_key_parts_cover_every_field():
    """The run fingerprint's config slice: byte-identical to the
    hand-listed tuple for the default config (so existing run ids hold),
    and sensitive to every single field."""
    import dataclasses

    default = GenConfig()
    assert default.key_parts() == (8, 3, 2, True, True, True, True, 2, 6)
    for f in dataclasses.fields(GenConfig):
        value = getattr(default, f.name)
        other = (not value) if isinstance(value, bool) else value + 1
        changed = dataclasses.replace(default, **{f.name: other})
        assert changed.key_parts() != default.key_parts(), f.name
