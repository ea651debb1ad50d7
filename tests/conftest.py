import numpy as np
import pytest

from fabricsim import logstore


@pytest.fixture
def decoded_records(monkeypatch) -> list[int]:
    """The seq (0 if it fails its checks) of every non-blank slot that a
    read, scan or recover decodes, whether its run was verified whole as
    columns or slot by slot."""
    decoded: list[int] = []
    real_decode = logstore._decode_slots

    def counting_decode(raw, element_size, layout=None):
        result = real_decode(raw, element_size, layout)
        if isinstance(result, np.ndarray):
            decoded.extend(result["seq"].tolist())
            return result
        pairs = list(result)
        decoded.extend(rec[0] if rec is not None else 0 for _, rec in pairs)
        return iter(pairs)

    monkeypatch.setattr(logstore, "_decode_slots", counting_decode)
    return decoded
