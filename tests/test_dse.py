"""Fault-campaign design-space exploration: builders, models, reports.

Covers the DSE package end to end: factor-space validation, factorial
and evolutionary design builders (including the typed empty-feasible-
set refusal), the campaign param-spec table and its REST catalogue
route, RNG-stream hygiene in the fault hook, cell error paths, cache
resumption, the effects model (against constructed ground truth), its
linear solver, and decision-support report building.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.errors import HTTP_STATUS_BY_CODE
from repro.mem import MIB
from repro.resilience import (
    CAMPAIGN_PARAMS,
    CampaignParamError,
    UnknownCampaignError,
    campaign_catalogue,
    make_campaign,
    make_rest_fault_hook,
    validate_campaign_params,
)
from repro.resilience.dse import (
    CELL_TARGET,
    DseDesignError,
    EmptyFeasibleSetError,
    EvolutionarySearch,
    build_report,
    cells_for,
    default_space,
    evaluate_cell_slo,
    fit_effects,
    fractional_factorial,
    full_factorial,
    render_markdown,
    render_text,
    run_cell,
)
from repro.resilience.dse.responses import DEFAULT_SLOS, compute_responses


# -- factor space -----------------------------------------------------------------


class TestFactorSpace:
    def test_default_space_axes_in_order(self):
        space = default_space()
        assert space.names == [
            "frame_flits", "credit_depth", "bonding",
            "loss_rate", "campaign", "failover_policy",
        ]

    def test_campaign_choices_track_catalogue(self):
        factor = default_space().factor("campaign")
        assert set(factor.choices) == {"none"} | set(CAMPAIGN_PARAMS)

    def test_unknown_factor_raises(self):
        with pytest.raises(DseDesignError, match="unknown factor"):
            default_space().levels({"wavelength_nm": [1550]})

    def test_out_of_range_level_raises(self):
        with pytest.raises(DseDesignError, match="outside"):
            default_space().levels({"frame_flits": [4]})
        with pytest.raises(DseDesignError, match="outside"):
            default_space().levels({"loss_rate": [0.9]})

    def test_wrong_typed_level_raises(self):
        with pytest.raises(DseDesignError, match="integer"):
            default_space().levels({"frame_flits": [8.5]})
        with pytest.raises(DseDesignError, match="boolean"):
            default_space().levels({"bonding": [1]})
        with pytest.raises(DseDesignError, match="not in"):
            default_space().levels({"failover_policy": ["yolo"]})

    def test_duplicate_levels_raise(self):
        with pytest.raises(DseDesignError, match="duplicate"):
            default_space().levels({"frame_flits": [8, 8]})

    def test_validate_point_requires_every_factor(self):
        space = default_space()
        with pytest.raises(DseDesignError, match="missing factor"):
            space.validate_point({"frame_flits": 8})
        point = {
            "frame_flits": 8, "credit_depth": 64, "bonding": False,
            "loss_rate": 0.0, "campaign": "none",
            "failover_policy": "fast",
        }
        assert space.validate_point(point) == point
        with pytest.raises(DseDesignError, match="unknown factor"):
            space.validate_point({**point, "lasers": 3})

    def test_error_codes_route_to_http_400(self):
        assert HTTP_STATUS_BY_CODE["dse/bad-design"] == 400
        assert HTTP_STATUS_BY_CODE["dse/empty-feasible-set"] == 400
        assert (
            HTTP_STATUS_BY_CODE["resilience/bad-campaign-params"] == 400
        )


# -- design builders --------------------------------------------------------------


LEVELS = {"a": [1, 2], "b": [10, 20, 30], "c": [True, False]}


class TestFactorialDesigns:
    def test_full_factorial_is_ordered_cartesian_product(self):
        points = full_factorial(LEVELS)
        assert len(points) == 12
        assert points[0] == {"a": 1, "b": 10, "c": True}
        assert points[-1] == {"a": 2, "b": 30, "c": False}
        # first axis varies slowest
        assert [p["a"] for p in points[:6]] == [1] * 6

    def test_empty_space_raises(self):
        with pytest.raises(DseDesignError, match="empty factor space"):
            full_factorial({})

    def test_fraction_phases_partition_the_grid(self):
        key = lambda p: json.dumps(p, sort_keys=True)
        full = {key(p) for p in full_factorial(LEVELS)}
        half0 = {key(p) for p in fractional_factorial(LEVELS, 2, 0)}
        half1 = {key(p) for p in fractional_factorial(LEVELS, 2, 1)}
        assert half0 | half1 == full
        assert not half0 & half1

    def test_bad_fraction_and_phase_raise(self):
        with pytest.raises(DseDesignError, match="fraction"):
            fractional_factorial(LEVELS, 0)
        with pytest.raises(DseDesignError, match="phase"):
            fractional_factorial(LEVELS, 2, 2)

    def test_impossible_fraction_is_typed_empty_set(self):
        with pytest.raises(EmptyFeasibleSetError):
            fractional_factorial({"a": [1]}, 2, 1)

    def test_cells_replicate_with_derived_seeds(self):
        cells = cells_for([{"a": 1}, {"a": 2}], replicates=3, base_seed=40)
        assert len(cells) == 6
        assert [c.seed for c in cells if c.point == {"a": 1}] == [40, 41, 42]
        assert [c.replicate for c in cells[:3]] == [0, 1, 2]
        with pytest.raises(DseDesignError, match="replicates"):
            cells_for([{"a": 1}], replicates=0, base_seed=0)


class TestEvolutionarySearch:
    LEVELS = {"x": [0, 1, 2, 3], "y": [0, 1, 2, 3]}

    @staticmethod
    def _fitness(points):
        # Convex bowl with the optimum at (3, 3).
        return [
            (3 - p["x"]) ** 2 + (3 - p["y"]) ** 2 for p in points
        ]

    def test_finds_the_optimum_and_is_deterministic(self):
        runs = []
        for _ in range(2):
            search = EvolutionarySearch(
                self.LEVELS, population=6, generations=6, seed=11
            )
            runs.append(search.run(self._fitness))
        assert runs[0].best == {"x": 3, "y": 3}
        assert runs[0].best_fitness == 0.0
        assert runs[0].evaluated == runs[1].evaluated
        assert runs[0].generations == runs[1].generations
        # best-so-far never regresses across generations
        history = [g["best_fitness"] for g in runs[0].generations]
        assert history == sorted(history, reverse=True)

    def test_points_never_reevaluated(self):
        seen = []

        def fitness(points):
            keys = [json.dumps(p, sort_keys=True) for p in points]
            assert not set(keys) & set(seen)
            seen.extend(keys)
            return self._fitness(points)

        EvolutionarySearch(
            self.LEVELS, population=5, generations=5, seed=3
        ).run(fitness)

    def test_empty_feasible_set_raises_before_evaluating(self):
        search = EvolutionarySearch(
            self.LEVELS,
            population=4,
            generations=2,
            seed=0,
            feasible=lambda p: p["x"] + p["y"] > 100,
        )
        with pytest.raises(EmptyFeasibleSetError):
            search.run(lambda points: pytest.fail("evaluated a point"))

    def test_feasibility_constrains_the_search(self):
        search = EvolutionarySearch(
            self.LEVELS,
            population=6,
            generations=4,
            seed=5,
            feasible=lambda p: p["x"] < 2,
        )
        result = search.run(self._fitness)
        assert all(
            json.loads(key)["x"] < 2 for key in result.evaluated
        )
        assert result.best["x"] == 1

    def test_bad_parameters_raise(self):
        with pytest.raises(DseDesignError, match="population"):
            EvolutionarySearch(self.LEVELS, population=1)
        with pytest.raises(DseDesignError, match="tournament"):
            EvolutionarySearch(self.LEVELS, population=4, tournament=9)
        with pytest.raises(DseDesignError, match="mutation_rate"):
            EvolutionarySearch(self.LEVELS, mutation_rate=1.5)
        with pytest.raises(DseDesignError, match="generations"):
            EvolutionarySearch(self.LEVELS, generations=0)

    def test_evaluator_arity_mismatch_raises(self):
        search = EvolutionarySearch(
            self.LEVELS, population=4, generations=2, seed=0
        )
        with pytest.raises(DseDesignError, match="fitness"):
            search.run(lambda points: [1.0])


# -- campaign param-spec table (satellite) ---------------------------------------


class TestCampaignParamTable:
    def test_every_campaign_has_a_schema(self):
        from repro.resilience import CAMPAIGNS

        assert set(CAMPAIGN_PARAMS) == set(CAMPAIGNS)

    def test_catalogue_is_sorted_and_described(self):
        catalogue = campaign_catalogue()
        names = [entry["name"] for entry in catalogue]
        assert names == sorted(CAMPAIGN_PARAMS)
        brownout = next(e for e in catalogue if e["name"] == "brownout")
        assert brownout["doc"]
        params = {p["name"]: p for p in brownout["params"]}
        assert params["drop_probability"]["maximum"] == 1.0
        assert "doc" in params["at_s"]

    def test_unknown_campaign_is_distinct_from_bad_params(self):
        with pytest.raises(UnknownCampaignError) as info:
            validate_campaign_params("meteor-strike", {})
        assert info.value.code == "resilience/unknown-campaign"
        with pytest.raises(CampaignParamError) as info:
            validate_campaign_params("link-kill", {"duration_s": 1.0})
        assert info.value.code == "resilience/bad-campaign-params"
        # The param error still is an UnknownCampaignError subclass, so
        # pre-existing catch-all callers keep working.
        assert isinstance(info.value, UnknownCampaignError)

    def test_out_of_range_and_mistyped_values(self):
        with pytest.raises(CampaignParamError, match="outside"):
            validate_campaign_params(
                "brownout", {"drop_probability": 1.5}
            )
        with pytest.raises(CampaignParamError, match="number"):
            validate_campaign_params("link-flap", {"duration_s": "soon"})
        with pytest.raises(CampaignParamError):
            validate_campaign_params("link-kill", {"at_s": True})

    def test_validated_params_are_float_coerced(self):
        out = validate_campaign_params("link-flap", {"at_s": 1})
        assert out == {"at_s": 1.0}
        assert isinstance(out["at_s"], float)

    def test_make_campaign_validates_through_the_table(self):
        with pytest.raises(CampaignParamError):
            make_campaign("brownout", drop_probability=2.0)
        campaign = make_campaign("brownout", drop_probability=0.4)
        assert campaign.drop_probability == 0.4


class TestFaultCatalogueRoute:
    def _rack(self):
        from repro.testbed import RackTestbed

        return RackTestbed(nodes=2, channels_per_node=1)

    def test_get_faults_serves_the_catalogue(self):
        from repro.control import RestApi

        rack = self._rack()
        api = RestApi(rack.plane)
        status, body = api.handle(
            "GET", "/v1/faults", token=rack.admin_token
        )
        assert status == 200
        assert body["campaigns"] == campaign_catalogue()

    def test_get_faults_requires_read_permission(self):
        from repro.control import RestApi

        rack = self._rack()
        status, body = RestApi(rack.plane).handle(
            "GET", "/v1/faults", token=None
        )
        assert status == 401

    def test_bad_params_map_to_400_with_sharp_slug(self):
        from repro.control import RestApi

        rack = self._rack()
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        api = RestApi(rack.plane, fault_hook=make_rest_fault_hook(rack))
        status, body = api.handle(
            "POST",
            "/v1/faults",
            body={
                "campaign": "brownout",
                "attachment": attachment.attachment_id,
                "drop_probability": 7.0,
            },
            token=rack.admin_token,
        )
        assert status == 400
        assert body["code"] == "resilience/bad-campaign-params"


# -- RNG-stream hygiene (satellite) ----------------------------------------------


class TestFaultHookRngHygiene:
    def test_identical_posts_never_reuse_a_stream(self):
        from repro.control import RestApi
        from repro.testbed import RackTestbed

        rack = RackTestbed(nodes=2, channels_per_node=1)
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        api = RestApi(rack.plane, fault_hook=make_rest_fault_hook(rack))
        body = {
            "campaign": "brownout",
            "attachment": attachment.attachment_id,
            "at_s": 1e-6,
            "duration_s": 2e-6,
            "drop_probability": 0.5,
        }
        responses = []
        labels = []
        for _ in range(2):
            status, reply = api.handle(
                "POST", "/v1/faults", body=dict(body),
                token=rack.admin_token,
            )
            assert status == 202
            responses.append(reply)
            labels.append([
                link.faults.rng.label
                for link in rack.links_of("node1")
            ])
        assert responses[0]["call_index"] == 0
        assert responses[1]["call_index"] == 1
        assert responses[0]["rng_stream"] != responses[1]["rng_stream"]
        # The second POST reseeded every injector with a fresh stream.
        assert set(labels[0]).isdisjoint(labels[1])

    def test_hook_streams_derive_from_the_hook_seed(self):
        from repro.control import RestApi
        from repro.testbed import RackTestbed

        streams = []
        for _ in range(2):
            rack = RackTestbed(nodes=2, channels_per_node=1)
            attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
            api = RestApi(
                rack.plane, fault_hook=make_rest_fault_hook(rack, seed=9)
            )
            _, reply = api.handle(
                "POST",
                "/v1/faults",
                body={
                    "campaign": "link-kill",
                    "attachment": attachment.attachment_id,
                },
                token=rack.admin_token,
            )
            streams.append(reply["rng_stream"])
        assert streams[0] == streams[1]  # deterministic per hook seed


# -- cell runner error paths ------------------------------------------------------


class TestRunCellErrors:
    def test_unknown_campaign(self):
        with pytest.raises(DseDesignError):
            run_cell(campaign="meteor-strike", payload_kib=8)

    def test_out_of_range_factor_levels(self):
        with pytest.raises(DseDesignError, match="outside"):
            run_cell(frame_flits=4, payload_kib=8)
        with pytest.raises(DseDesignError, match="outside"):
            run_cell(credit_depth=0, payload_kib=8)
        with pytest.raises(DseDesignError, match="outside"):
            run_cell(loss_rate=0.75, payload_kib=8)

    def test_unknown_policy_and_bad_payload(self):
        with pytest.raises(DseDesignError, match="not in"):
            run_cell(failover_policy="heroic", payload_kib=8)
        with pytest.raises(DseDesignError, match="payload_kib"):
            run_cell(payload_kib=0)

    def test_campaign_params_rejected_for_fault_free_cell(self):
        with pytest.raises(DseDesignError, match="none"):
            run_cell(
                campaign="none",
                campaign_params={"at_s": 1e-6},
                payload_kib=8,
            )

    def test_bad_campaign_params_fail_before_simulation(self):
        with pytest.raises(CampaignParamError):
            run_cell(
                campaign="brownout",
                campaign_params={"drop_probability": 3.0},
                payload_kib=8,
            )


# -- cell runner semantics --------------------------------------------------------


class TestRunCellSemantics:
    def test_failover_cell_heals_and_is_fully_available(self):
        record = run_cell(
            campaign="link-kill", failover_policy="fast",
            payload_kib=32, seed=7,
        )
        assert record["verified"]
        assert record["failover"] is not None
        assert record["responses"]["availability"] == 1.0
        assert record["responses"]["recovery_time_s"] > 0.0
        assert record["responses"]["replayed_bytes"] > 0
        kinds = {event["kind"] for event in record["events"]}
        assert "fault.link_down" in kinds
        assert "health.failover" in kinds

    def test_canary_cell_loses_work_and_breaches_availability(self):
        from repro.obs.slo import parse_slo_specs

        record = run_cell(
            campaign="link-kill", failover_policy="none",
            payload_kib=32, seed=7,
        )
        assert record["write_failed"]
        assert record["responses"]["availability"] < 0.999
        assert record["responses"]["lost_bytes"] > 0
        verdict = evaluate_cell_slo(
            record, parse_slo_specs(DEFAULT_SLOS)
        )
        assert not verdict["ok"]
        breached = [
            r["name"] for r in verdict["results"] if not r["ok"]
        ]
        assert "availability-floor" in breached

    def test_fault_free_cell_is_clean(self):
        record = run_cell(campaign="none", payload_kib=16, seed=3)
        assert record["verified"]
        assert record["responses"]["availability"] == 1.0
        assert record["responses"]["downtime_s"] == 0.0
        assert record["events"] == []

    def test_cell_record_is_byte_deterministic(self):
        kwargs = dict(
            campaign="link-kill", failover_policy="fast",
            payload_kib=16, seed=5,
        )
        first = json.dumps(run_cell(**kwargs), sort_keys=True)
        second = json.dumps(run_cell(**kwargs), sort_keys=True)
        assert first == second


# -- response extraction ----------------------------------------------------------


class TestComputeResponses:
    def test_recovery_and_downtime_from_the_journal(self):
        events = [
            {"kind": "fault.link_down", "t": 10e-6},
            {
                "kind": "health.failover",
                "t": 25e-6,
                "recovery_time_s": 9e-6,
            },
        ]
        out = compute_responses(
            size_bytes=1000, bytes_acked=1000, drained_at_s=1e-3,
            events=events, metrics={}, replayed_bytes=64,
        )
        assert out["recovery_time_s"] == 9e-6
        assert out["downtime_s"] == pytest.approx(15e-6)
        assert out["availability"] == 1.0
        assert out["replayed_bytes"] == 64.0

    def test_unhealed_fault_is_down_to_end_of_run(self):
        events = [{"kind": "fault.link_down", "t": 10e-6}]
        out = compute_responses(
            size_bytes=1000, bytes_acked=400, drained_at_s=1e-3,
            events=events, metrics={}, replayed_bytes=0,
        )
        assert out["downtime_s"] == pytest.approx(1e-3 - 10e-6)
        assert out["availability"] == 0.4
        assert out["lost_bytes"] == 600.0

    def test_absorbed_fault_has_no_downtime(self):
        events = [{"kind": "fault.link_down", "t": 10e-6}]
        out = compute_responses(
            size_bytes=1000, bytes_acked=1000, drained_at_s=1e-3,
            events=events, metrics={}, replayed_bytes=0,
        )
        assert out["downtime_s"] == 0.0

    def test_wire_accounting_sums_label_sets(self):
        metrics = {
            "link.bytes_sent{link=a.up}": 500.0,
            "link.bytes_sent{link=b.up}": 700.0,
            "net.faults.frames_dropped{link=a.up}": 3.0,
        }
        out = compute_responses(
            size_bytes=100, bytes_acked=100, drained_at_s=1.0,
            events=[], metrics=metrics, replayed_bytes=0,
        )
        assert out["wire_bytes"] == 1200.0
        assert out["bandwidth_cost"] == 12.0
        assert out["frames_dropped"] == 3.0

    def test_zero_acked_stays_finite(self):
        out = compute_responses(
            size_bytes=100, bytes_acked=0, drained_at_s=1.0,
            events=[], metrics={"link.bytes_sent{link=a}": 50.0},
            replayed_bytes=0,
        )
        assert out["bandwidth_cost"] == 50.0
        assert out["availability"] == 0.0

    def test_missing_metric_is_a_breach(self):
        from repro.obs.slo import parse_slo_specs

        cell = {"metrics": {}, "drained_at_s": 0.0}
        verdict = evaluate_cell_slo(cell, parse_slo_specs(DEFAULT_SLOS))
        assert not verdict["ok"]
        assert all(
            r["reason"] == "metric absent from registry"
            for r in verdict["results"]
        )


# -- effects model ----------------------------------------------------------------


class TestEffectsModel:
    def test_recovers_constructed_main_effects(self):
        levels = {"a": ["lo", "hi"], "b": [1, 2]}
        effect = {
            ("lo",): 2.0, ("hi",): -2.0,
        }
        points = full_factorial(levels)
        values = [
            10.0
            + (2.0 if p["a"] == "lo" else -2.0)
            + (0.5 if p["b"] == 1 else -0.5)
            for p in points
        ]
        model = fit_effects(points, values, levels)
        assert model.mean == pytest.approx(10.0)
        assert model.r_squared == pytest.approx(1.0)
        assert model.ranking == ["a", "b"]
        a = model.factors[0]
        assert a["importance"] == pytest.approx(4.0)
        assert a["effects"]['"lo"'] == pytest.approx(2.0)
        assert a["effects"]['"hi"'] == pytest.approx(-2.0)
        b = model.factors[1]
        assert b["importance"] == pytest.approx(1.0)

    def test_recovers_constructed_interaction(self):
        levels = {"a": [0, 1], "b": [0, 1]}
        points = full_factorial(levels) * 2  # replicated
        values = [
            5.0 + (1.0 if p["a"] == p["b"] else -1.0) for p in points
        ]
        model = fit_effects(
            points, values, levels, interactions=[("a", "b")]
        )
        assert model.r_squared == pytest.approx(1.0)
        # Mains are flat; the interaction carries everything.
        assert all(
            entry["importance"] == pytest.approx(0.0, abs=1e-6)
            for entry in model.factors
        )
        inter = model.interactions[0]
        assert inter["factors"] == ["a", "b"]
        assert inter["importance"] == pytest.approx(2.0)
        assert inter["effects"]["0"]["0"] == pytest.approx(1.0)
        assert inter["effects"]["0"]["1"] == pytest.approx(-1.0)

    def test_single_level_factors_are_skipped(self):
        levels = {"a": [0, 1], "fixed": ["only"]}
        points = [{"a": 0, "fixed": "only"}, {"a": 1, "fixed": "only"}]
        model = fit_effects(points, [1.0, 3.0], levels)
        assert model.ranking == ["a"]

    def test_arity_and_emptiness_errors(self):
        with pytest.raises(DseDesignError, match="points"):
            fit_effects([{"a": 0}], [1.0, 2.0], {"a": [0, 1]})
        with pytest.raises(DseDesignError, match="no observations"):
            fit_effects([], [], {"a": [0, 1]})
        with pytest.raises(DseDesignError, match="non-varying"):
            fit_effects(
                [{"a": 0, "b": 0}],
                [1.0],
                {"a": [0, 1], "b": [0]},
                interactions=[("a", "b")],
            )


class TestLinearSolver:
    def test_well_conditioned_system_small_residual(self):
        from repro.accel import ops
        from repro.sim.rng import SeededRNG

        rng = SeededRNG(123).derive("solver")
        n = 21
        matrix = [
            [rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)
        ]
        for i in range(n):
            matrix[i][i] += n  # diagonal dominance: well conditioned
        rhs = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x = ops.solve_linear_system(matrix, rhs)
        for row, b in zip(matrix, rhs):
            assert abs(sum(m * v for m, v in zip(row, x)) - b) < 1e-12

    def test_singular_system_raises(self):
        from repro.accel import ops

        matrix = [[0.0] * 7 for _ in range(7)]
        with pytest.raises(ZeroDivisionError):
            ops.solve_linear_system(matrix, [1.0] * 7)


# -- report building --------------------------------------------------------------


def _fake_cell(point, seed, replicate, availability, cost):
    responses = {
        "availability": availability,
        "recovery_time_s": 0.0,
        "downtime_s": 0.0,
        "goodput_bytes_per_s": 1e8,
        "bandwidth_cost": cost,
        "wire_bytes": cost * 100.0,
        "frames_dropped": 0.0,
        "replayed_bytes": 0.0,
        "lost_bytes": (1.0 - availability) * 1000,
    }
    metrics = {
        f"dse.{name}{{component=dse}}": value
        for name, value in responses.items()
    }
    return {
        "point": dict(point),
        "seed": seed,
        "replicate": replicate,
        "value": {
            "responses": responses,
            "metrics": metrics,
            "verified": availability == 1.0,
            "drained_at_s": 1e-3,
        },
    }


class TestBuildReport:
    LEVELS = {"flits": [8, 16], "policy": ["fast", "none"]}

    def _cells(self):
        cells = []
        for point in full_factorial(self.LEVELS):
            availability = 1.0 if point["policy"] == "fast" else 0.5
            cost = 10.0 if point["flits"] == 16 else 20.0
            for replicate in range(2):
                cells.append(_fake_cell(
                    point, 40 + replicate, replicate, availability, cost
                ))
        return cells

    def _report(self):
        return build_report(
            design={"kind": "factorial"},
            cells=self._cells(),
            levels=self.LEVELS,
        )

    def test_ranking_passes_cheapest_first_and_flags_breaches(self):
        report = self._report()
        passing = report["ranking"]["passing"]
        breaching = report["ranking"]["breaching"]
        assert len(passing) == 2 and len(breaching) == 2
        assert json.loads(passing[0])["flits"] == 16  # cheapest wire
        assert all(
            json.loads(key)["policy"] == "none" for key in breaching
        )
        for row in report["configs"]:
            if row["point"]["policy"] == "none":
                assert row["breached"] == ["availability-floor"]
        assert report["recommendation"] == {
            "flits": 16, "policy": "fast",
        }

    def test_sensitivity_names_the_dominant_factor(self):
        report = self._report()
        availability = report["sensitivity"]["availability"]
        assert availability["factors"][0]["factor"] == "policy"
        cost = report["sensitivity"]["bandwidth_cost"]
        assert cost["factors"][0]["factor"] == "flits"

    def test_replicate_means_and_all_must_pass(self):
        cells = [
            _fake_cell({"flits": 8}, 1, 0, 1.0, 10.0),
            _fake_cell({"flits": 8}, 2, 1, 0.5, 30.0),
        ]
        report = build_report(
            design={"kind": "factorial"},
            cells=cells,
            levels={"flits": [8]},
        )
        row = report["configs"][0]
        assert row["responses"]["bandwidth_cost"] == 20.0
        assert not row["slo_ok"]  # one breaching replicate fails it

    def test_report_is_deterministic_and_renders(self):
        first = json.dumps(self._report(), sort_keys=True)
        second = json.dumps(self._report(), sort_keys=True)
        assert first == second
        report = self._report()
        text = render_text(report)
        assert "configurations breaching SLOs" in text
        assert "availability-floor" in text
        assert "recommendation:" in text
        markdown = render_markdown(report)
        assert "## Ranking" in markdown
        assert "BREACH: availability-floor" in markdown

    def test_empty_design_and_bad_objective_raise(self):
        with pytest.raises(DseDesignError, match="empty"):
            build_report(
                design={}, cells=[], levels=self.LEVELS
            )
        with pytest.raises(DseDesignError, match="objective"):
            build_report(
                design={},
                cells=self._cells(),
                levels=self.LEVELS,
                objective="vibes",
            )


# -- cache resumption (satellite) -------------------------------------------------


class TestResumption:
    def _specs(self):
        from repro.sweep import make_spec

        points = full_factorial({
            "frame_flits": [8, 16],
        })
        specs = []
        for cell in cells_for(points, replicates=1, base_seed=3):
            specs.append(make_spec(
                CELL_TARGET,
                seed=cell.seed,
                payload_kib=8,
                campaign="none",
                **cell.point,
            ))
        return specs

    def test_killed_run_resumes_from_cache(self, tmp_path):
        from repro.sweep import SweepEngine

        cache_dir = str(tmp_path / "cache")
        specs = self._specs()

        # "Killed" first invocation: only one cell completed.
        first = SweepEngine(jobs=1, cache_dir=cache_dir)
        partial = first.run(specs[:1])
        assert first.executed == 1

        # Second invocation redoes the whole design: the completed
        # cell is served from cache, only the remainder executes.
        second = SweepEngine(jobs=1, cache_dir=cache_dir)
        outcomes = second.run(specs)
        assert second.cache_hits == 1
        assert second.executed == len(specs) - 1
        assert outcomes[0].cached
        assert outcomes[0].value == partial[0].value

        # Warm rerun: every cell from cache, values identical.
        third = SweepEngine(jobs=1, cache_dir=cache_dir)
        warm = third.run(specs)
        assert third.cache_hits == len(specs)
        assert third.executed == 0
        assert [o.value for o in warm] == [o.value for o in outcomes]


# -- CLI --------------------------------------------------------------------------


class TestDseCli:
    def _run(self, argv):
        from repro.__main__ import main

        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(argv)
        return code, stdout.getvalue()

    def test_factorial_cli_end_to_end(self, tmp_path):
        out = str(tmp_path / "artifacts")
        cache = str(tmp_path / "cache")
        argv = [
            "dse",
            "--factor", "frame_flits=8",
            "--factor", "loss_rate=0.0",
            "--factor", "failover_policy=fast,none",
            "--payload-kib", "32",
            "--seed", "7",
            "--out", out,
            "--cache-dir", cache,
        ]
        code, text = self._run(argv)
        assert code == 0
        assert "configurations breaching SLOs" in text
        assert "availability-floor" in text

        report_path = tmp_path / "artifacts" / "dse-report.json"
        first = report_path.read_bytes()
        report = json.loads(first)
        assert report["ranking"]["breaching"]
        assert report["recommendation"]["failover_policy"] == "fast"
        markdown = (tmp_path / "artifacts" / "dse-report.md").read_bytes()

        # Warm rerun: all cells from cache, artifacts byte-identical.
        code, text = self._run(argv)
        assert code == 0
        assert "cache 4 hits" in text
        assert report_path.read_bytes() == first
        assert (
            tmp_path / "artifacts" / "dse-report.md"
        ).read_bytes() == markdown

    def test_help_lists_dse(self):
        from repro.__main__ import _build_parser

        stdout = io.StringIO()
        with redirect_stdout(stdout):
            _build_parser().print_help()
        assert "dse" in stdout.getvalue()
