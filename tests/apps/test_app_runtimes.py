"""The apps' clients live on their deployment's runtime, on both backends.

A store or ledger client is built like any other deployment client
(``ByzCastDeployment.add_client``), so on the real-time backend it runs
the same executor as the replicas it talks to, not a simulated CPU queue
on the wall clock.
"""

from __future__ import annotations

import pytest

from repro.apps.kvstore import ShardedStore
from repro.apps.ledger import OrderingService
from repro.env import make_runtime
from tests.helpers import FAST_COSTS


@pytest.fixture(params=["sim", "rt"])
def runtime(request):
    rt = make_runtime(request.param, seed=3)
    yield rt
    rt.close()


def assert_on_the_deployment_runtime(client, deployment):
    replica = next(iter(deployment.groups.values())).replicas[0]
    assert client.runtime is deployment.runtime
    assert type(client.cpu) is type(replica.cpu)
    assert client.network is deployment.runtime.transport
    assert client.monitor is deployment.runtime.monitor
    assert client in deployment.clients


def test_store_client_shares_the_runtime_and_completes_put_get(runtime):
    store = ShardedStore(shards=2, runtime=runtime, costs=FAST_COSTS)
    client = store.client("c0")
    assert_on_the_deployment_runtime(client, store.deployment)
    client.put("k", 7)
    assert store.run_until_quiescent(step=0.1, max_steps=100)
    client.get("k")
    assert store.run_until_quiescent(step=0.1, max_steps=100)
    assert client.take_results() == [(("put", "k", 7), "ok"),
                                     (("get", "k"), 7)]


def test_ledger_client_shares_the_runtime_and_completes_an_append(runtime):
    service = OrderingService(["a", "b"], runtime=runtime, costs=FAST_COSTS)
    client = service.client("c0")
    assert_on_the_deployment_runtime(client, service.deployment)
    client.submit_tx(["a"], ("tx", 1))
    assert service.run_until_quiescent(step=0.1, max_steps=100)
    assert service.ledger("a").height == 1
    assert service.ledger("b").height == 0
