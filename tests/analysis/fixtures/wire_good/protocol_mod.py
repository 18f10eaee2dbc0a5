"""CHR005 fixture (clean): a protocol module that declares no
``ENVELOPE_EXTENSIONS`` table — the extension check must stand down."""

OPERATIONS = {
    "advise": ("question",),
    "drill": ("dimension",),
    "stats": (),
}
