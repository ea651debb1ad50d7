import pytest

from fabricsim import logstore


@pytest.fixture
def decoded_records(monkeypatch) -> list[int]:
    """The seq (0 if it fails its checks) of every non-blank slot that a
    read, scan or recover decodes."""
    decoded: list[int] = []
    real_decode = logstore._decode_slots

    def counting_decode(raw, element_size, seqs):
        for index, rec in real_decode(raw, element_size, seqs):
            decoded.append(rec[0] if rec is not None else 0)
            yield index, rec

    monkeypatch.setattr(logstore, "_decode_slots", counting_decode)
    return decoded
