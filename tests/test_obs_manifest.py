"""Manifest building, hashing, and schema validation tests."""

from __future__ import annotations

import builtins
import dataclasses
import json

import pytest

from repro import Placer3D
from repro.obs import (
    build_manifest,
    config_hash,
    load_schema,
    validate_manifest,
    write_manifest,
)
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate


class TestValidator:
    def test_type_mismatch(self):
        assert validate(1, {"type": "string"}) \
            == ["$: expected type string, got int"]

    def test_type_list_accepts_any_member(self):
        schema = {"type": ["string", "null"]}
        assert validate(None, schema) == []
        assert validate("x", schema) == []
        assert validate(1.5, schema) != []

    def test_bool_is_not_an_integer(self):
        assert validate(True, {"type": "integer"}) != []

    def test_required_and_properties(self):
        schema = {"type": "object", "required": ["a"],
                  "properties": {"a": {"type": "integer"}}}
        assert validate({"a": 1}, schema) == []
        assert validate({}, schema) == ["$: missing required key 'a'"]
        assert validate({"a": "x"}, schema) \
            == ["$.a: expected type integer, got str"]

    def test_additional_properties_false(self):
        schema = {"type": "object", "properties": {},
                  "additionalProperties": False}
        assert validate({"x": 1}, schema) == ["$: unexpected key 'x'"]

    def test_items_and_min_items(self):
        schema = {"type": "array", "minItems": 2,
                  "items": {"type": "number"}}
        assert validate([1.0, 2.0], schema) == []
        assert len(validate([1.0], schema)) == 1
        assert validate([1.0, "x"], schema) \
            == ["$[1]: expected type number, got str"]

    def test_const_and_minimum(self):
        assert validate("a", {"const": "b"}) != []
        assert validate(-1, {"minimum": 0}) != []
        assert validate(0, {"minimum": 0}) == []

    def test_unknown_keyword_raises(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            validate({}, {"patternProperties": {}})

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"a": 1}))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"type": "object",
                                      "required": ["a"]}))
        assert validate_main([str(good), str(schema)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({}))
        assert validate_main([str(bad), str(schema)]) == 1
        assert validate_main([]) == 2


class TestConfigHash:
    def test_deterministic(self, config):
        assert config_hash(config) == config_hash(config)
        assert config_hash(config).startswith("sha256:")

    def test_sensitive_to_any_knob(self, config):
        changed = dataclasses.replace(config, seed=config.seed + 1)
        assert config_hash(changed) != config_hash(config)
        changed = dataclasses.replace(config, alpha_ilv=2e-5)
        assert config_hash(changed) != config_hash(config)


class TestManifest:
    @pytest.fixture
    def placed(self, small_netlist, config):
        result = Placer3D(small_netlist, config).run()
        return small_netlist, config, result

    def test_manifest_validates_against_packaged_schema(self, placed):
        netlist, config, result = placed
        manifest = build_manifest(netlist, config, result)
        assert validate_manifest(manifest) == []
        assert manifest["kind"] == "repro.placement.run"
        assert manifest["circuit"]["num_cells"] == netlist.num_cells
        assert manifest["config_hash"] == config_hash(config)
        assert any(row["path"] == "place/global"
                   for row in manifest["stages"])
        assert len(manifest["rounds"]) == config.legalization_rounds

    def test_validation_catches_missing_and_mistyped_keys(self, placed):
        netlist, config, result = placed
        manifest = build_manifest(netlist, config, result)
        broken = dict(manifest)
        del broken["seed"]
        assert any("seed" in e for e in validate_manifest(broken))
        broken = json.loads(json.dumps(manifest))
        broken["result"]["ilv"] = "lots"
        assert any("$.result.ilv" in e for e in validate_manifest(broken))

    def test_write_manifest_round_trips(self, placed, tmp_path):
        netlist, config, result = placed
        manifest = build_manifest(netlist, config, result,
                                  trace_path="run.trace.jsonl")
        path = write_manifest(tmp_path / "sub" / "run.manifest.json",
                              manifest)
        loaded = json.loads(open(path).read())
        assert validate_manifest(loaded) == []
        assert loaded["trace_path"] == "run.trace.jsonl"

    def test_schemas_are_read_once_per_process(self, monkeypatch):
        """Validating a manifest, checkpoint metadata or a job document
        reads its schema file the first time only."""
        from repro.obs.manifest import validate_checkpoint_meta
        from repro.service.jobstore import validate_job

        checks = (validate_manifest, validate_checkpoint_meta,
                  validate_job)
        for check in checks:
            assert check({})  # invalid, but validated
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        for check in checks:
            assert check({})
        assert [name for name in opened
                if name.endswith("schema.json")] == []
        assert load_schema() is load_schema()

    def test_schema_itself_uses_only_supported_keywords(self):
        # validating anything exercises every keyword in the schema;
        # an unsupported keyword would raise instead of reporting
        errors = validate_manifest({})
        assert errors  # empty dict is invalid, but validation ran
        assert load_schema()["type"] == "object"
