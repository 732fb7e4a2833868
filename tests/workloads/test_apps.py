"""Unit tests for the application workloads: Redis, Twitter, TPC-C, YCSB."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads.kv import OpKind, Operation
from repro.workloads.redis import PMRedis, RedisHandler
from repro.workloads.tpcc import LOCKING_TXN_FRACTION, TPCCHandler
from repro.workloads.twitter import TwitterHandler
from repro.workloads.ycsb import YCSBConfig, YCSBGenerator


class TestPMRedis:
    def test_string_roundtrip(self):
        store = PMRedis()
        store.set("k", "v")
        assert store.get("k")[0] == "v"

    def test_incr_counts(self):
        store = PMRedis()
        assert store.incr("n")[0] == 1
        assert store.incr("n")[0] == 2

    def test_incr_on_string_rejected(self):
        store = PMRedis()
        store.set("k", "text")
        with pytest.raises(WorkloadError):
            store.incr("k")

    def test_hash_ops(self):
        store = PMRedis()
        store.hset("h", "f1", 1)
        store.hset("h", "f2", 2)
        value, _cost = store.hgetall("h")
        assert value == {"f1": 1, "f2": 2}

    def test_list_ops_lpush_order(self):
        store = PMRedis()
        for i in range(3):
            store.lpush("l", i)
        assert store.lrange("l", 0, 10)[0] == [2, 1, 0]

    def test_set_ops(self):
        store = PMRedis()
        store.sadd("s", "a")
        store.sadd("s", "a")
        store.sadd("s", "b")
        assert store.smembers("s")[0] == {"a", "b"}

    def test_type_confusion_rejected(self):
        store = PMRedis()
        store.lpush("l", 1)
        with pytest.raises(WorkloadError):
            store.hset("l", "f", 1)

    def test_reads_cost_less_than_writes(self):
        store = PMRedis()
        write_cost = store.set("k", "v")
        _value, read_cost = store.get("k")
        assert write_cost > read_cost

    def test_digest_stable_under_order(self):
        a, b = PMRedis(), PMRedis()
        a.set("x", 1); a.sadd("s", "m")
        b.sadd("s", "m"); b.set("x", 1)
        assert a.digest() == b.digest()


class TestRedisHandler:
    def test_get_set_via_operations(self):
        handler = RedisHandler()
        out = handler.process(Operation(OpKind.SET, key="k", value="v"))
        assert out.result.ok and out.cost_ns > 0
        out = handler.process(Operation(OpKind.GET, key="k"))
        assert out.result.value == "v"

    def test_proc_commands(self):
        handler = RedisHandler()
        out = handler.process(Operation(OpKind.PROC_UPDATE, key="n",
                                        proc="incr"))
        assert out.result.value == 1
        handler.process(Operation(OpKind.PROC_UPDATE, key="l", value=9,
                                  proc="lpush"))
        out = handler.process(Operation(OpKind.PROC_READ, key="l",
                                        proc="lrange"))
        assert out.result.value == [9]

    def test_unknown_proc_fails_cleanly(self):
        handler = RedisHandler()
        out = handler.process(Operation(OpKind.PROC_UPDATE, proc="flushall"))
        assert not out.result.ok


class TestTwitterHandler:
    def test_register_assigns_increasing_uids(self):
        handler = TwitterHandler()
        first = handler.process(Operation(OpKind.PROC_UPDATE,
                                          proc="register"))
        second = handler.process(Operation(OpKind.PROC_UPDATE,
                                           proc="register"))
        assert second.result.value == first.result.value + 1

    def test_post_fans_out_to_followers(self):
        handler = TwitterHandler()
        handler.process(Operation(OpKind.PROC_UPDATE, proc="follow",
                                  args={"follower": 2, "followee": 1}))
        handler.process(Operation(OpKind.PROC_UPDATE, proc="post",
                                  value="hello", args={"uid": 1}))
        timeline = handler.process(Operation(OpKind.PROC_READ,
                                             proc="timeline",
                                             args={"uid": 2}))
        assert len(timeline.result.value) == 1
        assert timeline.result.value[0]["body"] == "hello"

    def test_post_cost_grows_with_followers(self):
        handler = TwitterHandler()
        lonely = handler.process(Operation(OpKind.PROC_UPDATE, proc="post",
                                           value="t", args={"uid": 5}))
        for follower in range(10):
            handler.process(Operation(OpKind.PROC_UPDATE, proc="follow",
                                      args={"follower": follower,
                                            "followee": 6}))
        popular = handler.process(Operation(OpKind.PROC_UPDATE, proc="post",
                                            value="t", args={"uid": 6}))
        assert popular.cost_ns > lonely.cost_ns


class TestTPCCHandler:
    def test_new_order_decrements_stock(self):
        handler = TPCCHandler(warehouses=1)
        before = handler.stock[(0, 5)]
        out = handler.process(Operation(
            OpKind.PROC_UPDATE, proc="new_order",
            args={"warehouse": 0, "district": 0, "items": [(5, 3)]}))
        assert out.result.ok
        assert handler.stock[(0, 5)] == before - 3

    def test_order_ids_increase_per_district(self):
        handler = TPCCHandler(warehouses=1)
        first = handler.process(Operation(
            OpKind.PROC_UPDATE, proc="new_order",
            args={"warehouse": 0, "district": 3, "items": [(1, 1)]}))
        second = handler.process(Operation(
            OpKind.PROC_UPDATE, proc="new_order",
            args={"warehouse": 0, "district": 3, "items": [(1, 1)]}))
        assert second.result.value == first.result.value + 1

    def test_payment_accumulates_balance(self):
        handler = TPCCHandler(warehouses=1)
        for _ in range(2):
            handler.process(Operation(
                OpKind.PROC_UPDATE, proc="payment",
                args={"warehouse": 0, "district": 0, "customer": 7,
                      "amount": 10.0}))
        assert handler.customer_balance[(0, 0, 7)] == 20.0

    def test_order_status_reads_order(self):
        handler = TPCCHandler(warehouses=1)
        oid = handler.process(Operation(
            OpKind.PROC_UPDATE, proc="new_order",
            args={"warehouse": 0, "district": 0,
                  "items": [(2, 1)]})).result.value
        out = handler.process(Operation(
            OpKind.PROC_READ, proc="order_status",
            args={"warehouse": 0, "district": 0, "order": oid}))
        assert out.result.ok

    def test_restock_rule_prevents_negative_stock(self):
        handler = TPCCHandler(warehouses=1)
        for _ in range(30):
            handler.process(Operation(
                OpKind.PROC_UPDATE, proc="new_order",
                args={"warehouse": 0, "district": 0, "items": [(9, 5)]}))
        assert handler.stock[(0, 9)] >= 0

    def test_locking_fraction_matches_paper(self):
        """2x/(1+2x) with the chosen x must give ~13.7% lock requests."""
        x = LOCKING_TXN_FRACTION
        lock_request_share = 2 * x / (1 + 2 * x)
        assert abs(lock_request_share - 0.137) < 0.002


class TestYCSB:
    def test_update_ratio_respected(self):
        generator = YCSBGenerator(YCSBConfig(update_ratio=0.25))
        rng = random.Random(0)
        ops = [generator.make_op(0, i, rng)[0] for i in range(4000)]
        updates = sum(1 for op in ops if op.is_update)
        assert 0.2 < updates / len(ops) < 0.3

    def test_zipf_skew_concentrates_keys(self):
        generator = YCSBGenerator(YCSBConfig(zipf_theta=0.99,
                                             population=1000))
        rng = random.Random(0)
        keys = [generator.make_op(0, i, rng)[0].key for i in range(5000)]
        hot = sum(1 for k in keys if k < 10)
        assert hot > 1000

    def test_payload_size_passed_through(self):
        generator = YCSBGenerator(YCSBConfig(payload_bytes=333))
        _op, size = generator.make_op(0, 0, random.Random(0))
        assert size == 333

    def test_invalid_ratio_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            YCSBConfig(update_ratio=1.5)

    @pytest.mark.parametrize("theta", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_zipf_theta_rejected_at_construction(self, theta):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="zipf_theta"):
            YCSBConfig(zipf_theta=theta)

    def test_zero_zipf_theta_stays_uniform(self):
        generator = YCSBGenerator(YCSBConfig(zipf_theta=0.0,
                                             population=100))
        rng, twin = random.Random(5), random.Random(5)
        for i in range(500):
            key = generator.make_op(0, i, rng)[0].key
            assert key == twin.randrange(100)
            twin.random()  # the update-ratio draw

    def test_generator_keys_follow_the_sampler(self):
        from repro.sim.rand import zipfian_ranks
        config = YCSBConfig(zipf_theta=0.9, population=1000,
                            update_ratio=0.5)
        generator = YCSBGenerator(config)
        rng, twin = random.Random(6), random.Random(6)
        for i in range(500):
            key = generator.make_op(0, i, rng)[0].key
            assert key == zipfian_ranks(twin, 1000, 0.9, 1)[0]
            twin.random()
