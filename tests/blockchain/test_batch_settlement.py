"""Batched verification: n queries settle in one transaction, amortising gas."""

import pytest

from repro.common.errors import StateError
from repro.common.rng import default_rng
from repro.core.cloud import CloudServer, MaliciousCloud, Misbehavior, SearchResponse
from repro.core.query import Query
from repro.core.records import make_database
from repro.obs import audit as obs_audit
from repro.obs.audit import VERDICT_DEGRADED, VERDICT_PAID
from repro.planner import Range
from repro.system import DEFAULT_FUNDING, SlicerSystem

QUERIES = [Query.parse(7, "="), Query.parse(100, ">"), Query.parse(100, "<")]


@pytest.fixture()
def system(tparams):
    s = SlicerSystem(tparams, rng=default_rng(151))
    s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
    return s


class TestBatchSearch:
    def test_all_verified_and_correct(self, system):
        outcomes = system.batch_search(QUERIES)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.verified
        # Results match the individual-search path.
        singles = [system.search(q) for q in QUERIES]
        for batch, single in zip(outcomes, singles):
            assert batch.record_ids == single.record_ids

    def test_batch_amortises_gas(self, system):
        outcomes = system.batch_search(QUERIES, payment=100)
        batch_settle_gas = outcomes[0].settle_receipt.gas_used
        singles = [system.search(q, payment=100) for q in QUERIES]
        individual_total = sum(o.settle_gas for o in singles)
        assert batch_settle_gas < individual_total
        # Amortisation saves at least one intrinsic tx cost.
        assert individual_total - batch_settle_gas > 21_000

    def test_payments_settle_per_query(self, system):
        cloud0 = system.chain.balance(system.cloud_address)
        system.batch_search(QUERIES, payment=500)
        assert system.chain.balance(system.cloud_address) == cloud0 + 3 * 500

    def test_malicious_cloud_refunds_whole_batch(self, tparams):
        s = SlicerSystem(tparams, rng=default_rng(152))
        s.cloud = MaliciousCloud(
            tparams, s.owner.keys.trapdoor.public, Misbehavior.TAMPER_ENTRY, default_rng(1)
        )
        s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
        # All three queries have non-empty result sets, so tampering hits all
        # of them (an empty-result query is answered honestly and would pay).
        with_results = [Query.parse(100, ">"), Query.parse(100, "<"), Query.parse(200, ">")]
        outcomes = s.batch_search(with_results, payment=500)
        assert all(not o.verified for o in outcomes)
        assert s.balances()["user"] == DEFAULT_FUNDING
        assert s.balances()["cloud"] == DEFAULT_FUNDING

    def test_batch_cannot_resettle(self, system):
        from repro.blockchain.slicer_contract import response_to_chain_args

        outcomes = system.batch_search(QUERIES[:1])
        again = system.chain.call(
            system.cloud_address,
            system.contract,
            "batch_verify_and_settle",
            (
                [outcomes[0].query_id],
                system.cloud.ads_value,
                [response_to_chain_args(outcomes[0].response)],
            ),
        )
        assert not again.status

    def test_length_mismatch_reverts(self, system):
        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "batch_verify_and_settle",
            ([0, 1], system.cloud.ads_value, [[]]),
        )
        assert not receipt.status
        assert "mismatch" in receipt.revert_reason


class DropResultCloud(CloudServer):
    """Drops one ``TokenResult`` from one response of every batch.

    The contract rejects such a response with a revert ("response does not
    match the queried tokens"), which takes the whole batch transaction
    down with it.
    """

    def __init__(self, params, trapdoor_public, victim: int) -> None:
        super().__init__(params, trapdoor_public)
        self.victim = victim

    def search_many(self, token_lists, **hooks):
        responses = super().search_many(token_lists, **hooks)
        bad = responses[self.victim]
        responses[self.victim] = SearchResponse(bad.results[:-1])
        return responses


def deploy_with(tparams, cloud_factory, seed=153):
    s = SlicerSystem(tparams, rng=default_rng(seed))
    if cloud_factory is not None:
        s.cloud = cloud_factory(tparams, s.owner.keys.trapdoor.public)
    s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
    obs_audit.AUDIT_LOG.reset()
    return s


class TestBatchRevert:
    """A reverted batch settlement moves no money; every escrow it staged
    must still end up paid, refunded, or reported as not settled."""

    PAYMENT = 1_000_000

    def test_one_bad_response_leaves_only_its_own_escrow_open(self, tparams):
        s = deploy_with(tparams, lambda p, pk: DropResultCloud(p, pk, victim=1))
        outcomes = s.batch_search(QUERIES, payment=self.PAYMENT)

        # The honest siblings are settled on their own and paid.
        assert [o.verified for o in outcomes] == [True, False, True]
        assert [o.settled for o in outcomes] == [True, False, True]
        assert "does not match" in outcomes[1].settle_receipt.revert_reason
        assert outcomes[1].record_ids == set()
        # Only the bad query's payment is still held in escrow.
        assert s.chain.balance(s.contract.address) == self.PAYMENT
        assert s.balances()["cloud"] == DEFAULT_FUNDING + 2 * self.PAYMENT
        assert s.balances()["user"] == DEFAULT_FUNDING - 3 * self.PAYMENT

        # The audit log matches the chain: nothing is logged as refunded.
        records = obs_audit.AUDIT_LOG.records()
        assert [r.verdict for r in records] == [
            VERDICT_PAID, VERDICT_DEGRADED, VERDICT_PAID,
        ]
        assert [r.amount for r in records] == [self.PAYMENT, 0, self.PAYMENT]
        assert "does not match" in records[1].detail
        totals = obs_audit.AUDIT_LOG.totals()
        assert totals["paid_out"] == s.balances()["cloud"] - DEFAULT_FUNDING
        assert totals["refunded"] == 0

    def test_out_of_gas_batch_falls_back_to_single_settlements(self, tparams):
        s = deploy_with(tparams, None)
        chain_call = s.chain.call

        def starved_batch(sender, contract, method, args=(), value=0, **kwargs):
            if method == "batch_verify_and_settle":
                kwargs["gas_limit"] = 60_000  # runs out mid-batch
            return chain_call(sender, contract, method, args, value, **kwargs)

        s.chain.call = starved_batch
        outcomes = s.batch_search(QUERIES, payment=self.PAYMENT)
        assert all(o.verified and o.settled for o in outcomes)
        assert s.chain.balance(s.contract.address) == 0
        assert s.balances()["cloud"] == DEFAULT_FUNDING + 3 * self.PAYMENT
        verdicts = [r.verdict for r in obs_audit.AUDIT_LOG.records()]
        assert verdicts == [VERDICT_PAID] * 3

    def test_reverted_single_settlement_is_not_a_refund(self, tparams):
        class DropOneCloud(CloudServer):
            def search(self, tokens, **hooks):
                honest = super().search(tokens, **hooks)
                return SearchResponse(honest.results[:-1])

        s = deploy_with(tparams, DropOneCloud)
        outcome = s.search(QUERIES[1], payment=self.PAYMENT)
        assert not outcome.settled and not outcome.verified
        assert s.chain.balance(s.contract.address) == self.PAYMENT
        (record,) = obs_audit.AUDIT_LOG.records()
        assert record.verdict == VERDICT_DEGRADED
        assert record.amount == 0
        assert record.paid_to is None


class TestUnderfundedBatch:
    """A batch the user cannot pay for in full posts no escrow at all.

    Escrows are posted one by one, so a batch that ran dry part-way would
    leave the escrows already posted locked in the contract for good.
    """

    PAYMENT = 4 * 10**8  # three escrows exceed DEFAULT_FUNDING

    def deploy(self, tparams, mode):
        s = SlicerSystem(tparams, rng=default_rng(154), settlement_mode=mode)
        s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
        obs_audit.AUDIT_LOG.reset()
        return s

    def assert_nothing_escrowed(self, s):
        assert s.chain.balance(s.contract.address) == 0
        assert s.balances()["user"] == DEFAULT_FUNDING
        assert obs_audit.AUDIT_LOG.records() == []

    @pytest.mark.parametrize("mode", ["sync", "block"])
    def test_batch_search_is_refused_up_front(self, tparams, mode):
        s = self.deploy(tparams, mode)
        with pytest.raises(StateError, match="needs"):
            s.batch_search(QUERIES, payment=self.PAYMENT)
        self.assert_nothing_escrowed(s)

    def test_search_plans_is_refused_up_front(self, tparams):
        s = self.deploy(tparams, "sync")
        plans = [Range(7, 7), Range(101, 255), Range(0, 99)]
        with pytest.raises(StateError, match="needs"):
            s.search_plans(plans, payment=self.PAYMENT)
        self.assert_nothing_escrowed(s)
