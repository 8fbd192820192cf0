"""Unified runtime options: validation, precedence, session scoping."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    RuntimeOptions,
    session_defaults,
    set_session_defaults,
    using,
)


#: Every runtime knob, one field each; growing the set is a deliberate
#: API change, not a side effect.
RUNTIME_OPTION_FIELDS = {"backend", "shards", "stream_budget", "trace",
                         "array_namespace", "chaos"}


class TestRuntimeOptionsValidation:
    def test_field_names_are_pinned(self):
        names = {field.name for field in dataclasses.fields(RuntimeOptions)}
        assert names == RUNTIME_OPTION_FIELDS

    def test_flow_runtime_fields_mirror_options(self):
        """``to_flow_kwargs`` forwards every option ``FlowConfig`` knows
        and drops the rest, so the two sets must match up to the
        session-scoped ``chaos``."""
        from repro.core.config import FlowConfig
        assert set(FlowConfig.RUNTIME_FIELDS) == \
            RUNTIME_OPTION_FIELDS - {"chaos"}

    def test_neutral_record_is_all_none(self):
        options = RuntimeOptions()
        assert all(value is None for value in
                   dataclasses.asdict(options).values())

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeOptions().backend = "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            RuntimeOptions(backend="nope")

    def test_shards_must_be_positive(self):
        with pytest.raises(ConfigError, match="shards"):
            RuntimeOptions(shards=0)

    def test_shards_require_sharded_backend(self):
        with pytest.raises(ConfigError, match="sharded"):
            RuntimeOptions(backend="bigint", shards=2)

    def test_stream_budget_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="stream_budget"):
            RuntimeOptions(stream_budget=-1)

    def test_valid_combination_accepted(self):
        options = RuntimeOptions(backend="sharded", shards=2,
                                 stream_budget=0, trace="",
                                 array_namespace="numpy")
        assert options.shards == 2

    def test_replace(self):
        options = RuntimeOptions(stream_budget=7)
        patched = options.replace(backend="numpy")
        assert patched.stream_budget == 7
        assert patched.backend == "numpy"
        assert options.backend is None  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            RuntimeOptions().replace(stream_budget=-3)

    def test_to_flow_kwargs_round_trips(self):
        from repro.core.config import FlowConfig
        options = RuntimeOptions(backend="bigint", stream_budget=5)
        config = FlowConfig(seed=1, **options.to_flow_kwargs())
        assert config.backend == "bigint"
        assert config.stream_budget == 5


class TestSessionDefaults:
    def test_install_and_read_back(self):
        installed = set_session_defaults(RuntimeOptions(stream_budget=9))
        assert session_defaults() is installed
        assert session_defaults().stream_budget == 9

    def test_kwargs_form_patches_current_session(self):
        set_session_defaults(RuntimeOptions(stream_budget=9))
        set_session_defaults(backend="numpy")
        assert session_defaults().stream_budget == 9
        assert session_defaults().backend == "numpy"

    def test_no_args_resets(self):
        set_session_defaults(RuntimeOptions(stream_budget=9))
        set_session_defaults()
        assert session_defaults().stream_budget is None

    def test_using_restores_previous(self):
        set_session_defaults(RuntimeOptions(stream_budget=1))
        with using(stream_budget=5):
            assert session_defaults().stream_budget == 5
        assert session_defaults().stream_budget == 1

    def test_using_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using(stream_budget=5):
                raise RuntimeError("boom")
        assert session_defaults().stream_budget is None

    def test_using_accepts_options_record(self):
        with using(RuntimeOptions(backend="numpy")):
            assert session_defaults().backend == "numpy"


class TestPrecedence:
    """flag > session > env > built-in default, on every knob."""

    def test_stream_budget(self, monkeypatch):
        from repro.simulation.streaming import resolve_stream_budget
        assert resolve_stream_budget(None) is None
        monkeypatch.setenv("REPRO_STREAM_BUDGET", "100")
        assert resolve_stream_budget(None) == 100
        set_session_defaults(stream_budget=50)
        assert resolve_stream_budget(None) == 50
        assert resolve_stream_budget(7) == 7
        assert resolve_stream_budget(0) is None  # 0 = explicit off

    def test_backend(self, monkeypatch):
        from repro.simulation.backends import default_backend_name
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        assert default_backend_name() == "bigint"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        set_session_defaults(backend="bigint")
        assert default_backend_name() == "bigint"  # session > env

    def test_session_shards_select_sharded(self, monkeypatch):
        from repro.simulation.backends import default_backend_name
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        set_session_defaults(shards=2)
        assert default_backend_name() == "sharded"  # session > env

    def test_sharded_shard_count(self, monkeypatch):
        from repro.simulation.backends import ShardedBackend
        monkeypatch.setenv("REPRO_SIM_SHARDS", "7")
        set_session_defaults(shards=3)
        assert ShardedBackend().configured_shards() == 3  # session > env
        assert ShardedBackend(shards=2).configured_shards() == 2


class TestDeprecatedShims:
    """The per-knob setter that remains is a plain alias, not a shim."""

    def test_set_default_backend_not_deprecated(self,
                                                recwarn):
        from repro.simulation.backends import set_default_backend
        set_default_backend("numpy")
        assert session_defaults().backend == "numpy"
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
